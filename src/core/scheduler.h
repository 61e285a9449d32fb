#ifndef BLAZEIT_CORE_SCHEDULER_H_
#define BLAZEIT_CORE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shared_sweep.h"
#include "exec/thread_pool.h"

namespace blazeit {

/// One unit of schedulable work: a prepared query plus the shared-sweep
/// group tag the optimizer derived for it (SharedSweepGroupKey). The tag
/// is computed by the caller so *it* controls key uniqueness — ExecuteBatch
/// keys by batch position, the serving layer by position within the
/// coalesced admission window — which is what lets queries from different
/// clients land in the same group.
struct ScheduledQuery {
  PreparedQuery prepared;
  /// Original query text (feeds ExecutionReports).
  std::string frameql;
  /// Per-query trace (nullable). Only ever written by the one thread
  /// executing this query, which is what keeps batch tracing free of
  /// cross-query bleed.
  std::shared_ptr<obs::QueryTrace> trace;
  /// SharedSweepGroupKey(prepared.query, <caller's index>).
  uint64_t group_key = 0;
};

/// Result of QueryScheduler::Run, parallel to its input.
struct ScheduleOutcome {
  std::vector<Result<QueryOutput>> results;
  /// All-zero for failed queries (the documented ExecuteBatch contract).
  std::vector<BatchQueryStats> stats;
  /// Number of shared-plan groups formed.
  int64_t groups = 0;
};

/// The shared-plan scheduler extracted from BlazeItEngine::ExecuteBatch:
/// groups prepared queries by their group tag (first-appearance order),
/// runs the groups concurrently on the exec pool while queries inside a
/// group run serially, and feeds each query through its own SweepCacheView
/// over the scheduler's sweeps so a single NN training run and per-frame
/// sweep serve the whole group. ExecuteBatch (one scheduler, and so one
/// fresh set of sweeps, per call) and the serving layer
/// (serve::AdmissionQueue, one scheduler whose sweeps stay warm across
/// admission windows) are both thin clients of this class.
///
/// Determinism contract (inherited from ExecuteBatch): results[i] — the
/// answer, frames, rows, and simulated CostMeter — is bit-identical to a
/// standalone Execute of the same query at any thread count. Sharing
/// counters in `stats` can vary with scheduling when *different* groups
/// race on overlapping cache keys; query outputs never do.
class QueryScheduler {
 public:
  /// Called as each query's slot completes, from whichever pool worker ran
  /// its group — the callback must be thread-safe. The serving layer uses
  /// this to stream per-query results back as their group finishes instead
  /// of waiting for the whole schedule.
  using ResultCallback =
      std::function<void(size_t index, const Result<QueryOutput>& result,
                         const BatchQueryStats& stats)>;

  /// `engine` must outlive the scheduler.
  explicit QueryScheduler(BlazeItEngine* engine) : engine_(engine) {}
  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Executes `queries` under the shared-plan grouping, sharing the
  /// scheduler's sweeps (which stay warm across Run calls); `budget` tags
  /// the pool job for the exec layer's sub-pool caps.
  ScheduleOutcome Run(
      const std::vector<ScheduledQuery>& queries,
      exec::ThreadPool::Budget budget = exec::ThreadPool::Budget::kDefault,
      const ResultCallback& on_result = nullptr);

 private:
  BlazeItEngine* engine_;
  SharedSweepCache sweeps_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SCHEDULER_H_
