#include "nn/optimizer.h"

#include <utility>

namespace blazeit {

SgdOptimizer::SgdOptimizer(std::vector<ParamRef> params, double lr,
                           double momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    velocity_.emplace_back(p.value->size(), 0.0f);
  }
}

void SgdOptimizer::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    std::vector<float>& value = *params_[i].value;
    std::vector<float>& grad = *params_[i].grad;
    std::vector<float>& vel = velocity_[i];
    const float m = static_cast<float>(momentum_);
    const float lr = static_cast<float>(lr_);
    for (size_t j = 0; j < value.size(); ++j) {
      vel[j] = m * vel[j] + grad[j];
      value[j] -= lr * vel[j];
      grad[j] = 0.0f;
    }
  }
}

}  // namespace blazeit
