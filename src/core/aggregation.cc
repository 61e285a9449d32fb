#include "core/aggregation.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "stats/control_variates.h"
#include "stats/online_stats.h"
#include "stats/sampler.h"
#include "util/logging.h"

namespace blazeit {

const char* AggregateMethodName(AggregateMethod method) {
  switch (method) {
    case AggregateMethod::kQueryRewrite:
      return "query-rewrite";
    case AggregateMethod::kControlVariates:
      return "control-variates";
    case AggregateMethod::kPlainAqp:
      return "plain-aqp";
  }
  return "?";
}

AggregationExecutor::AggregationExecutor(StreamData* stream,
                                         AggregateOptions options,
                                         ArtifactCache* sweep_cache,
                                         obs::QueryTrace* trace)
    : stream_(stream),
      cache_(sweep_cache != nullptr ? sweep_cache : stream->artifact_cache),
      options_(options),
      trace_(trace) {}

int64_t PositiveTrainingFrames(const StreamData& stream, int class_id) {
  int64_t positives = 0;
  for (int c : stream.train_labels->Counts(class_id)) {
    if (c > 0) ++positives;
  }
  return positives;
}

Result<FrameWindow> AggregationExecutor::BeginRun(double error,
                                                  double confidence,
                                                  FrameWindow window) {
  if (error <= 0 || confidence <= 0 || confidence >= 1) {
    return Status::InvalidArgument(
        "aggregation requires error > 0 and confidence in (0,1)");
  }
  nn_counts_.clear();
  nn_bootstrap_.reset();
  return ClampFrameWindow(window, stream_->test_day->num_frames());
}

Result<AggregateResult> AggregationExecutor::RunPlainAqp(int class_id,
                                                         double error,
                                                         double confidence,
                                                         FrameWindow window) {
  BLAZEIT_ASSIGN_OR_RETURN(window, BeginRun(error, confidence, window));
  if (window.end <= window.begin) return AggregateResult();
  return SamplePlainAqp(class_id, error, confidence, window, CostMeter{});
}

Result<AggregateResult> AggregationExecutor::Run(int class_id, double error,
                                                 double confidence,
                                                 FrameWindow window) {
  BLAZEIT_ASSIGN_OR_RETURN(window, BeginRun(error, confidence, window));
  if (window.end <= window.begin) {
    // Range entirely past the recorded day: zero frames satisfy the
    // predicate, so the count over the range is exactly 0 — consistent
    // with the empty results the other executors return, and free.
    return AggregateResult();
  }
  CostMeter meter;

  // --- sufficiency of training data (Algorithm 1 precondition) ---
  const int64_t positives = PositiveTrainingFrames(*stream_, class_id);
  if (positives < kMinPositiveTrainingFrames) {
    BLAZEIT_LOG(kDebug) << "insufficient training data for class "
                        << ClassName(class_id) << " (" << positives
                        << " positive frames); defaulting to AQP";
    return SamplePlainAqp(class_id, error, confidence, window, meter);
  }
  const std::vector<int>& train_counts =
      stream_->train_labels->Counts(class_id);

  // --- train the specialized counting NN on the labeled day ---
  SpecializedNNConfig nn_config = options_.nn;
  nn_config.train.seed = HashCombine(options_.seed, 0xaaaa);
  nn_config.cache = cache_;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace_, "train", &meter);
    return SpecializedNN::Train(*stream_->train_day, {train_counts},
                                nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  SpecializedNN nn = std::move(trained).value();
  meter.ChargeTraining(nn.trained_frames());

  // --- estimate the NN's error on the held-out day via the bootstrap ---
  {
    obs::TraceSpan span(trace_, "holdout-bootstrap", &meter);
    const SyntheticVideo& held_out = *stream_->held_out_day;
    const std::vector<int>& held_truth =
        stream_->held_out_labels->Counts(class_id);
    std::vector<int64_t> held_frames(
        static_cast<size_t>(held_out.num_frames()));
    std::iota(held_frames.begin(), held_frames.end(), 0);
    std::vector<float> held_pred =
        nn.ExpectedCountsForFrames(held_out, held_frames);
    std::vector<double> predicted(held_pred.begin(), held_pred.end());
    std::vector<double> truth(held_truth.begin(), held_truth.end());
    meter.ChargeSpecializedNN(held_out.num_frames());
    meter.ChargeThresholding(held_out.num_frames());
    auto boot = BootstrapAbsError(predicted, truth, confidence,
                                  options_.bootstrap_resamples,
                                  HashCombine(options_.seed, 0xbbbb));
    BLAZEIT_RETURN_NOT_OK(boot.status());
    nn_bootstrap_ = boot.value();
  }

  // --- run the NN over the unseen test day (both paths need it) ---
  // The full-day NN sweeps (here and on the held-out day above) are the
  // aggregation scan's cost; they shard across the exec pool inside
  // ProbsForFrames. Every reduction *over* the resulting counts below
  // (OnlineStats means, the bootstrap, OnlineCovariance) deliberately
  // stays a serial fixed-order chain — floating-point accumulation order
  // is part of the output contract, so only the per-frame map work is
  // parallel, never the folds.
  const SyntheticVideo& test = *stream_->test_day;
  const int64_t n_window = window.end - window.begin;
  std::vector<int64_t> test_frames(static_cast<size_t>(n_window));
  std::iota(test_frames.begin(), test_frames.end(), window.begin);
  {
    obs::TraceSpan span(trace_, "test-sweep", &meter);
    nn_counts_ = nn.ExpectedCountsForFrames(test, test_frames);
    meter.ChargeSpecializedNN(n_window);
  }

  AggregateResult result;
  result.nn_error_bound = nn_bootstrap_->error_quantile;

  // --- Algorithm 1 branch: rewrite if the NN is provably accurate ---
  if (options_.allow_query_rewrite && nn_bootstrap_->error_quantile < error) {
    obs::TraceSpan span(trace_, "estimate:query-rewrite", &meter);
    OnlineStats stats;
    for (float v : nn_counts_) stats.Add(v);
    result.estimate = stats.Mean();
    result.method = AggregateMethod::kQueryRewrite;
    result.cost = meter;
    result.detection_calls = meter.detection_calls();
    return result;
  }

  if (!options_.allow_control_variates) {
    return SamplePlainAqp(class_id, error, confidence, window, meter);
  }

  // --- control variates: NN as the cheap correlated auxiliary ---
  obs::TraceSpan estimate_span(trace_, "estimate:control-variates", &meter);
  // Sampler indices are window-relative: index i means test frame
  // window.begin + i, so the proxy/oracle pair stays aligned with
  // nn_counts_ (which holds only window frames).
  const std::vector<int>& test_truth = stream_->test_labels->Counts(class_id);
  ControlVariate cv;
  {
    OnlineStats proxy_stats;
    for (float v : nn_counts_) proxy_stats.Add(v);
    cv.tau = proxy_stats.Mean();
    cv.variance = proxy_stats.PopulationVariance();
  }
  cv.proxy = [this](int64_t frame) {
    return static_cast<double>(nn_counts_[static_cast<size_t>(frame)]);
  };
  CostMeter* meter_ptr = &meter;
  const int64_t window_begin = window.begin;
  FrameOracle oracle = [&test_truth, meter_ptr, window_begin](int64_t frame) {
    meter_ptr->ChargeDetection();
    return static_cast<double>(
        test_truth[static_cast<size_t>(window_begin + frame)]);
  };
  SamplingConfig sampling;
  sampling.error = error;
  sampling.confidence = confidence;
  sampling.value_range =
      static_cast<double>(stream_->train_labels->MaxCount(class_id)) + 1.0;
  sampling.growth = options_.growth;
  sampling.seed = HashCombine(options_.seed, 0xcccc);
  auto estimate = ControlVariateSample(n_window, oracle, cv, sampling);
  BLAZEIT_RETURN_NOT_OK(estimate.status());

  // Correlation over the window (diagnostic, used by Figure 5 analysis).
  OnlineCovariance corr;
  for (int64_t t = window.begin; t < window.end; ++t) {
    corr.Add(static_cast<double>(test_truth[static_cast<size_t>(t)]),
             static_cast<double>(
                 nn_counts_[static_cast<size_t>(t - window.begin)]));
  }

  result.estimate = estimate.value().estimate;
  result.method = AggregateMethod::kControlVariates;
  result.samples_used = estimate.value().samples_used;
  result.nn_correlation = corr.Correlation();
  result.cost = meter;
  result.detection_calls = meter.detection_calls();
  return result;
}

Result<AggregateResult> AggregationExecutor::SamplePlainAqp(
    int class_id, double error, double confidence, FrameWindow window,
    CostMeter meter) {
  SamplingConfig sampling;
  sampling.error = error;
  sampling.confidence = confidence;
  sampling.growth = options_.growth;
  sampling.seed = HashCombine(options_.seed, 0xdddd);
  return PlainAqpAggregate(*stream_, class_id, window, sampling, meter,
                           trace_);
}

Result<AggregateResult> PlainAqpAggregate(const StreamData& stream,
                                          int class_id, FrameWindow window,
                                          SamplingConfig sampling,
                                          CostMeter meter,
                                          obs::QueryTrace* trace) {
  obs::TraceSpan span(trace, "estimate:plain-aqp", &meter);
  const std::vector<int>& test_truth = stream.test_labels->Counts(class_id);
  CostMeter* meter_ptr = &meter;
  const int64_t window_begin = window.begin;
  FrameOracle oracle = [&test_truth, meter_ptr, window_begin](int64_t frame) {
    meter_ptr->ChargeDetection();
    return static_cast<double>(
        test_truth[static_cast<size_t>(window_begin + frame)]);
  };
  sampling.value_range =
      static_cast<double>(stream.train_labels->MaxCount(class_id)) + 1.0;
  auto estimate = AdaptiveSample(window.end - window.begin, oracle, sampling);
  BLAZEIT_RETURN_NOT_OK(estimate.status());

  AggregateResult result;
  result.estimate = estimate.value().estimate;
  result.method = AggregateMethod::kPlainAqp;
  result.samples_used = estimate.value().samples_used;
  result.cost = meter;
  result.detection_calls = meter.detection_calls();
  return result;
}

}  // namespace blazeit
