#ifndef BLAZEIT_CORE_AGGREGATION_H_
#define BLAZEIT_CORE_AGGREGATION_H_

#include <optional>
#include <vector>

#include "core/catalog.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "sim/cost_model.h"
#include "stats/bootstrap.h"
#include "stats/sampler.h"
#include "util/status.h"

namespace blazeit {

namespace obs {
class QueryTrace;  // obs/trace.h
}

/// Which path Algorithm 1 ended up taking.
enum class AggregateMethod {
  kQueryRewrite,     // specialized NN accurate enough; ran it alone
  kControlVariates,  // NN as control variate + detector sampling
  kPlainAqp,         // no/insufficient training data: naive AQP
};

const char* AggregateMethodName(AggregateMethod method);

/// Minimum number of positive training frames for specialization (the
/// "sufficient training data" test of Algorithm 1). Below it ChoosePlan
/// picks plain AQP and AggregationExecutor::Run falls back to it.
constexpr int64_t kMinPositiveTrainingFrames = 50;

/// Training-day frames with at least one instance of `class_id`: the count
/// both sides of that test read.
int64_t PositiveTrainingFrames(const StreamData& stream, int class_id);

struct AggregateOptions {
  SpecializedNNConfig nn;
  /// Sample-size growth per adaptive round.
  double growth = 0.2;
  int bootstrap_resamples = 200;
  /// Ablation knobs for the Section 10.2 comparisons.
  bool allow_query_rewrite = true;
  bool allow_control_variates = true;
  uint64_t seed = 1;
};

struct AggregateResult {
  /// Frame-averaged count estimate (FCOUNT semantics).
  double estimate = 0.0;
  AggregateMethod method = AggregateMethod::kPlainAqp;
  /// Simulated cost of the run (the paper's runtime).
  CostMeter cost;
  /// Object-detection calls consumed (sample complexity).
  int64_t detection_calls = 0;
  /// Bootstrap error bound of the specialized NN on the held-out day (only
  /// meaningful when a NN was trained).
  double nn_error_bound = 0.0;
  /// Pearson correlation between NN and detector counts over the sampled
  /// frames (control-variates path).
  double nn_correlation = 0.0;
  int64_t samples_used = 0;
};

/// Executes aggregation queries per Algorithm 1: train a specialized
/// counting NN if the training data allows; rewrite the query onto the NN
/// when its held-out bootstrap error is inside the user's tolerance;
/// otherwise use the NN as a control variate for adaptive sampling; with
/// no usable NN, fall back to plain AQP.
class AggregationExecutor {
 public:
  /// `stream` must outlive the executor. `sweep_cache` overrides the
  /// stream's artifact cache (the engine hands each query's
  /// SweepCacheView in here, so batched queries share NN sweeps and every
  /// query's cache traffic is counted); nullptr keeps the stream's
  /// persistent cache. `trace` (nullable) receives train/sweep/estimate
  /// stage spans.
  AggregationExecutor(StreamData* stream, AggregateOptions options = {},
                      ArtifactCache* sweep_cache = nullptr,
                      obs::QueryTrace* trace = nullptr);

  /// Runs FCOUNT(class) ERROR WITHIN `error` AT CONFIDENCE `confidence`
  /// over the test-day frames in `window` (default: the whole day). The
  /// estimate is the frame-averaged count *within the window*; sampling,
  /// the NN sweep, and the control-variate correlation all restrict to it.
  Result<AggregateResult> Run(int class_id, double error, double confidence,
                              FrameWindow window = FrameWindow{});

  /// Plain AQP over the test-day frames in `window`, with no NN: what Run
  /// falls back to without enough training data, and the load-shed plan
  /// for aggregates. Same checks, window semantics and seed as Run's
  /// fallback, so the two are bit-identical on the same window.
  Result<AggregateResult> RunPlainAqp(int class_id, double error,
                                      double confidence,
                                      FrameWindow window = FrameWindow{});

  /// Per-frame expected counts over the last Run's window, from the NN it
  /// trained (empty if the plain-AQP path was taken); used by benchmarks.
  const std::vector<float>& nn_counts() const { return nn_counts_; }

  /// The held-out bootstrap result from the last Run, if a NN was trained.
  const std::optional<BootstrapResult>& nn_bootstrap() const {
    return nn_bootstrap_;
  }

 private:
  /// Validates the query, clamps `window` to the test day and clears the
  /// previous run's NN state.
  Result<FrameWindow> BeginRun(double error, double confidence,
                               FrameWindow window);
  /// The plain-AQP sampler with this executor's seed, growth and trace,
  /// continuing `meter`.
  Result<AggregateResult> SamplePlainAqp(int class_id, double error,
                                         double confidence, FrameWindow window,
                                         CostMeter meter);

  StreamData* stream_;
  ArtifactCache* cache_;
  AggregateOptions options_;
  obs::QueryTrace* trace_;
  std::vector<float> nn_counts_;
  std::optional<BootstrapResult> nn_bootstrap_;
};

/// The plain-AQP sampler (Algorithm 1's no-NN plan, and Section 10.2's
/// Naive AQP baseline): adaptive sampling over the test-day frames in
/// `window` (already clamped) with the detector as oracle and no variance
/// reduction. `sampling` supplies error, confidence, growth and seed; its
/// value_range is set here from the training day's maximum count. Each
/// sample charges one detector call on top of `meter`; `trace` (nullable)
/// receives the estimate span.
Result<AggregateResult> PlainAqpAggregate(const StreamData& stream,
                                          int class_id, FrameWindow window,
                                          SamplingConfig sampling,
                                          CostMeter meter,
                                          obs::QueryTrace* trace = nullptr);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_AGGREGATION_H_
