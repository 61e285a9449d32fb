#include "core/baselines.h"

#include "stats/sampler.h"

namespace blazeit {

BaselineResult NaiveAggregate(StreamData* stream, int class_id) {
  BaselineResult out;
  const std::vector<int>& counts = stream->test_labels->Counts(class_id);
  double sum = 0.0;
  for (int c : counts) {
    out.cost.ChargeDetection();
    sum += c;
  }
  out.estimate = counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
  out.detection_calls = out.cost.detection_calls();
  return out;
}

BaselineResult NoScopeOracleAggregate(StreamData* stream, int class_id) {
  BaselineResult out;
  const std::vector<int>& counts = stream->test_labels->Counts(class_id);
  double sum = 0.0;
  for (int c : counts) {
    if (c > 0) {
      // The oracle is free; identifying *how many* objects needs detection.
      out.cost.ChargeDetection();
      sum += c;
    }
  }
  out.estimate = counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
  out.detection_calls = out.cost.detection_calls();
  return out;
}

Result<AggregateResult> NaiveAqpAggregate(StreamData* stream, int class_id,
                                          double error, double confidence,
                                          uint64_t seed) {
  SamplingConfig sampling;
  sampling.error = error;
  sampling.confidence = confidence;
  sampling.seed = seed;
  return PlainAqpAggregate(*stream, class_id,
                           FrameWindow{0, stream->test_day->num_frames()},
                           sampling, CostMeter{});
}

ScrubResult NaiveScrub(StreamData* stream,
                       const std::vector<ClassCountRequirement>& reqs,
                       int64_t limit, int64_t gap) {
  CostMeter meter;
  return SequentialScan(*stream, reqs, limit, gap,
                        {{0, stream->test_day->num_frames()}}, &meter);
}

ScrubResult NoScopeOracleScrub(StreamData* stream,
                               const std::vector<ClassCountRequirement>& reqs,
                               int64_t limit, int64_t gap) {
  CostMeter meter;
  return SequentialScan(*stream, reqs, limit, gap,
                        {{0, stream->test_day->num_frames()}}, &meter,
                        /*presence_oracle=*/true);
}

Result<SelectionResult> NaiveSelection(StreamData* stream,
                                       const UdfRegistry* udfs,
                                       const AnalyzedQuery& query) {
  SelectionOptions options;
  options.use_label_filter = false;
  options.use_content_filter = false;
  options.use_temporal_filter = false;
  options.use_spatial_filter = false;
  SelectionExecutor executor(stream, udfs, options);
  return executor.Run(query);
}

Result<SelectionResult> NoScopeOracleSelection(StreamData* stream,
                                               const UdfRegistry* udfs,
                                               const AnalyzedQuery& query) {
  // The oracle skips frames with no instance of the class, for free;
  // everything else behaves like the naive plan.
  SelectionOptions options;
  options.use_label_filter = false;
  options.use_content_filter = false;
  options.use_temporal_filter = false;
  options.use_spatial_filter = false;
  SelectionExecutor executor(stream, udfs, options);
  // Run the naive cascade, then rebate the detections the oracle skips.
  auto result = executor.Run(query);
  BLAZEIT_RETURN_NOT_OK(result.status());
  SelectionResult out = std::move(result).value();
  const std::vector<int>& counts =
      stream->test_labels->Counts(query.sel_class);
  int64_t occupied = 0;
  for (int c : counts) {
    if (c > 0) ++occupied;
  }
  CostMeter rebated;
  for (int64_t i = 0; i < occupied; ++i) rebated.ChargeDetection();
  out.cost = rebated;
  out.frames_detected = occupied;
  return out;
}

}  // namespace blazeit
