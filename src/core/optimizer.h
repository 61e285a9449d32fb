#ifndef BLAZEIT_CORE_OPTIMIZER_H_
#define BLAZEIT_CORE_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/catalog.h"
#include "frameql/analyzer.h"

namespace blazeit {

/// The physical plan the rule-based optimizer picked for a query.
enum class PlanKind {
  kSpecializedAggregation,  // Algorithm 1 (rewrite or control variates)
  kAqpAggregation,          // no training data: plain sampling
  kTrackerCountDistinct,    // detector + IOU tracker over the video
  kImportanceScrubbing,     // specialized-NN-ranked verification
  kScanScrubbing,           // no training instances: sequential scan
  kFilteredSelection,       // filter cascade + detection
  kBinaryDetection,         // NoScope replication (label filter + verify)
  kFullScan,                // exhaustive detection
};

const char* PlanKindName(PlanKind kind);

struct PlanChoice {
  PlanKind kind = PlanKind::kFullScan;
  /// Human-readable justification, e.g. "aggregation with error tolerance;
  /// 8123 positive training frames -> specialize".
  std::string rationale;
};

/// BlazeIt's rule-based optimizer (Section 5): inspects the analyzed query
/// and the stream's training data to choose a plan. Cheap filters are
/// almost always worth deploying (a 100,000 fps filter pays for itself by
/// discarding 0.003% of frames), so rules rather than cost search suffice.
PlanChoice ChoosePlan(const AnalyzedQuery& query, StreamData* stream);

/// The shared-plan pass of multi-query batching: maps an analyzed query
/// to the key of the batch group it executes in. Two queries get the same
/// key exactly when their plans train the same specialized NN over the
/// same stream (same executor kind and hence train-seed salt, same queried
/// classes and hence training labels) — so running them serially within
/// one group lets the first execution's training run and per-frame sweep
/// feed the rest through the run's SharedSweepCache, while distinct
/// keys carry no shared NN work and can run concurrently.
///
/// Plans that train nothing (count-distinct, full scans) get a key unique
/// to `query_index` (which must be unique within the run), i.e. a
/// singleton group, maximizing concurrency.
uint64_t SharedSweepGroupKey(const AnalyzedQuery& query, size_t query_index);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_OPTIMIZER_H_
