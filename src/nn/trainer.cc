#include "nn/trainer.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/string_util.h"

namespace blazeit {

Result<double> TrainClassifier(Sequential* model, const FeatureFn& features,
                               const std::vector<int>& labels, int input_dim,
                               const TrainConfig& config) {
  if (model == nullptr)
    return Status::InvalidArgument("model must not be null");
  if (labels.empty())
    return Status::InvalidArgument("training set must be non-empty");
  if (config.batch_size <= 0 || config.epochs <= 0)
    return Status::InvalidArgument("batch_size and epochs must be positive");

  const int64_t n = static_cast<int64_t>(labels.size());
  Rng rng(config.seed);
  SgdOptimizer opt(model->Params(), config.lr, config.momentum);
  SoftmaxCrossEntropy loss_fn;

  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  double final_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double epoch_loss = 0.0;
    int64_t batches = 0;
    for (int64_t start = 0; start < n; start += config.batch_size) {
      const int batch =
          static_cast<int>(std::min<int64_t>(config.batch_size, n - start));
      Matrix x(batch, input_dim);
      std::vector<int> y(static_cast<size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        int64_t idx = order[static_cast<size_t>(start + i)];
        std::vector<float> feat = features(idx);
        if (static_cast<int>(feat.size()) != input_dim) {
          return Status::InvalidArgument(StrFormat(
              "feature size %d does not match input_dim %d",
              static_cast<int>(feat.size()), input_dim));
        }
        std::copy(feat.begin(), feat.end(), x.Row(i));
        y[static_cast<size_t>(i)] = labels[static_cast<size_t>(idx)];
      }
      Matrix logits = model->Forward(x);
      epoch_loss += loss_fn.Forward(logits, y);
      ++batches;
      model->BackwardParams(loss_fn.Backward());
      opt.Step();
    }
    final_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
    opt.set_lr(opt.lr() * config.lr_decay);
  }
  return final_epoch_loss;
}

}  // namespace blazeit
