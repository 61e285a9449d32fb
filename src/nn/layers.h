#ifndef BLAZEIT_NN_LAYERS_H_
#define BLAZEIT_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "util/random.h"

namespace blazeit {

/// A trainable parameter buffer and its gradient, exposed to the optimizer.
struct ParamRef {
  std::vector<float>* value;
  std::vector<float>* grad;
};

/// Base class for differentiable layers. Forward caches whatever Backward
/// needs; layers are therefore stateful per batch and not thread-safe.
/// Infer is the stateless counterpart: the same forward math, bit for
/// bit, with no activation caching — safe to call concurrently from the
/// exec pool's inference shards (parameters must not be mutated
/// meanwhile, i.e. never during training).
class Layer {
 public:
  virtual ~Layer() = default;
  virtual Matrix Forward(const Matrix& input) = 0;
  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input).
  virtual Matrix Backward(const Matrix& grad_output) = 0;
  /// Backward for a caller that discards dL/d(input): accumulates the same
  /// parameter gradients, bit for bit, and skips what only dL/d(input)
  /// needs where the layer can.
  virtual void BackwardParams(const Matrix& grad_output) {
    Backward(grad_output);
  }
  /// Forward math without the Backward cache; const and thread-safe.
  virtual Matrix Infer(const Matrix& input) const = 0;
  virtual std::vector<ParamRef> Params() { return {}; }
};

/// Fully-connected layer: y = x W + b, with He-initialized weights.
class Linear : public Layer {
 public:
  /// Zero weights and bias; InitHe draws the weights.
  Linear(int in_dim, int out_dim);
  /// Linear(in_dim, out_dim) followed by InitHe(rng).
  Linear(int in_dim, int out_dim, Rng* rng);

  /// Draws every weight from N(0, 2 / in_dim), row-major — callers that
  /// defer the draws (to skip them when cached weights load instead) get
  /// the same values by initializing layers in construction order.
  void InitHe(Rng* rng);

  Matrix Forward(const Matrix& input) override;
  /// dW += X^T dY and db += colsum(dY) in place; returns dY W^T.
  Matrix Backward(const Matrix& grad_output) override;
  /// Backward without the dY W^T product.
  void BackwardParams(const Matrix& grad_output) override;
  Matrix Infer(const Matrix& input) const override;
  std::vector<ParamRef> Params() override;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  /// Weight matrix, [in_dim, out_dim].
  const Matrix& weights() const { return w_; }

 private:
  int in_dim_;
  int out_dim_;
  Matrix w_, w_grad_;
  std::vector<float> b_, b_grad_;
  Matrix cached_input_;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  Matrix Infer(const Matrix& input) const override;

 private:
  Matrix cached_input_;
};

/// A simple layer pipeline.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output) override;
  /// Backward through every layer but the first, whose input gradient
  /// nobody reads: it only accumulates its parameter gradients.
  void BackwardParams(const Matrix& grad_output) override;
  Matrix Infer(const Matrix& input) const override;
  std::vector<ParamRef> Params() override;

  size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace blazeit

#endif  // BLAZEIT_NN_LAYERS_H_
