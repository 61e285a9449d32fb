#ifndef BLAZEIT_NN_OPTIMIZER_H_
#define BLAZEIT_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layers.h"

namespace blazeit {

/// SGD with momentum — the paper's training procedure (Section 9: SGD,
/// momentum 0.9).
class SgdOptimizer {
 public:
  SgdOptimizer(std::vector<ParamRef> params, double lr,
               double momentum = 0.9);

  /// Applies one update from the accumulated gradients and zeroes each
  /// gradient as it consumes it, so the next backward pass accumulates
  /// from zero.
  void Step();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

 private:
  std::vector<ParamRef> params_;
  std::vector<std::vector<float>> velocity_;
  double lr_;
  double momentum_;
};

}  // namespace blazeit

#endif  // BLAZEIT_NN_OPTIMIZER_H_
