#ifndef BLAZEIT_NN_TRAINER_H_
#define BLAZEIT_NN_TRAINER_H_

#include <functional>
#include <vector>

#include "nn/layers.h"
#include "util/status.h"

namespace blazeit {

/// Mini-batch training configuration. Defaults follow the paper (Section 9:
/// cross-entropy loss, batch size 16, SGD momentum 0.9, one epoch).
struct TrainConfig {
  int epochs = 1;
  int batch_size = 16;
  double lr = 0.02;
  /// Multiplicative learning-rate decay applied after each epoch.
  double lr_decay = 0.5;
  double momentum = 0.9;
  uint64_t seed = 42;
};

/// Produces the feature vector of training example `index`. Features are
/// streamed per batch (frames are rendered on demand) so no full feature
/// matrix is ever materialized.
using FeatureFn = std::function<std::vector<float>(int64_t index)>;

/// Trains `model` (logits out) against integer labels with softmax
/// cross-entropy. Returns the mean loss over the final epoch.
///
/// Threading: serial. FeatureFn closures are not required to be
/// thread-safe, SGD is an ordered recurrence, and a mini-batch step's
/// GEMMs are too small to pay for a pool dispatch (see
/// nn/matmul_kernels.h). SpecializedNN::Train renders its training rows in
/// parallel blocks ahead of the same serial steps.
Result<double> TrainClassifier(Sequential* model, const FeatureFn& features,
                               const std::vector<int>& labels, int input_dim,
                               const TrainConfig& config);

}  // namespace blazeit

#endif  // BLAZEIT_NN_TRAINER_H_
