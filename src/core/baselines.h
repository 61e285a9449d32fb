#ifndef BLAZEIT_CORE_BASELINES_H_
#define BLAZEIT_CORE_BASELINES_H_

#include <vector>

#include "core/aggregation.h"
#include "core/catalog.h"
#include "core/scrubbing.h"
#include "core/selection.h"
#include "core/udf.h"
#include "frameql/analyzer.h"
#include "sim/cost_model.h"
#include "util/status.h"

namespace blazeit {

/// Result of a non-sampling baseline.
struct BaselineResult {
  double estimate = 0.0;
  CostMeter cost;
  int64_t detection_calls = 0;
};

/// Naive aggregation: full object detection on every test frame
/// (Section 10.2's "Naive" row). Exact by construction.
BaselineResult NaiveAggregate(StreamData* stream, int class_id);

/// NoScope-oracle aggregation: a free, perfect binary-presence oracle
/// skips empty frames; detection runs on every frame where the class is
/// present (Section 10.1.1 — NoScope cannot distinguish one object from
/// several, so occupied frames still need detection).
BaselineResult NoScopeOracleAggregate(StreamData* stream, int class_id);

/// Naive AQP aggregation (Section 10.2's "Naive AQP"): plain AQP over the
/// whole test day with the detector as oracle and no variance reduction —
/// the same sampler the engine's aqp-aggregation plan runs, here seeded
/// with `seed` itself and the default sample-size growth.
Result<AggregateResult> NaiveAqpAggregate(StreamData* stream, int class_id,
                                          double error, double confidence,
                                          uint64_t seed);

/// Naive scrubbing: the engine's sequential scan over the whole test day,
/// detection on every frame until LIMIT matches (GAP apart) are found.
ScrubResult NaiveScrub(StreamData* stream,
                       const std::vector<ClassCountRequirement>& reqs,
                       int64_t limit, int64_t gap);

/// NoScope-oracle scrubbing: the same scan, with the free presence oracle
/// skipping frames missing any required class; detection verifies the
/// rest in order.
ScrubResult NoScopeOracleScrub(StreamData* stream,
                               const std::vector<ClassCountRequirement>& reqs,
                               int64_t limit, int64_t gap);

/// Naive selection: detection on every test frame, predicate evaluated on
/// the detections (Section 10.4's "Naive").
Result<SelectionResult> NaiveSelection(StreamData* stream,
                                       const UdfRegistry* udfs,
                                       const AnalyzedQuery& query);

/// NoScope-oracle selection: detection only on frames where the class is
/// present per the free oracle; other filter classes unavailable
/// (Section 10.1.1).
Result<SelectionResult> NoScopeOracleSelection(StreamData* stream,
                                               const UdfRegistry* udfs,
                                               const AnalyzedQuery& query);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_BASELINES_H_
