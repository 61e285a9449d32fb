#ifndef BLAZEIT_CORE_ENGINE_H_
#define BLAZEIT_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/catalog.h"
#include "core/optimizer.h"
#include "core/scrubbing.h"
#include "core/selection.h"
#include "core/udf.h"
#include "exec/thread_pool.h"
#include "obs/report.h"
#include "sim/cost_model.h"
#include "util/status.h"

namespace blazeit {

class SharedSweepCache;  // core/shared_sweep.h
class SweepCacheView;    // core/shared_sweep.h

/// Per-query execution options forwarded to the executors.
struct EngineOptions {
  AggregateOptions aggregate;
  ScrubOptions scrub;
  SelectionOptions selection;
  /// Consult the detection store's per-segment sketches (built with
  /// DetectionStore::BuildSketches or `storecli sketch rebuild`) so full
  /// scans, count-distinct, and both scrubbing plans skip provably
  /// non-matching segments without decoding them. Outputs are
  /// bit-identical to the unindexed path (sketch_invariance_test); only
  /// the charged detector and NN calls drop. Off by default so cost
  /// accounting stays identical with and without a store (the
  /// store_invariance_test contract); a no-op for streams without a store
  /// or without current sketches. The one sketch switch: the engine hands
  /// it to the scrubbing executor.
  bool use_store_index = false;
  /// Attach an obs::ExecutionReport (plan, stage trace, simulated-cost
  /// breakdown, cache/sketch hit rates) to every QueryOutput. Reporting
  /// only observes: query outputs and simulated costs are bit-identical
  /// with it on or off. Off by default — the span bookkeeping costs a
  /// little wall-clock.
  bool collect_reports = false;
  /// Register "engine" and "storage" sections with the process-wide
  /// obs::StatusRegistry (rendered by the debug server's /statusz) for
  /// this engine's lifetime. Off by default so tests and libraries that
  /// build many engines don't pollute the global registry; `storecli
  /// serve --listen` turns it on.
  bool export_statusz = false;
};

/// Everything a FrameQL query can return.
struct QueryOutput {
  QueryKind kind = QueryKind::kExhaustive;
  PlanKind plan = PlanKind::kFullScan;
  /// Aggregates: the (frame-averaged or total) count estimate.
  double scalar = 0.0;
  /// Scrubbing / binary selection / exhaustive: matching frames.
  std::vector<int64_t> frames;
  /// Content-based selection: matching (frame, detection) rows.
  std::vector<SelectionRow> rows;
  /// Simulated cost of executing the query.
  CostMeter cost;
  /// The optimizer's plan description.
  std::string plan_description;
  /// EXPLAIN-style report (null unless EngineOptions::collect_reports).
  /// Shared so batch execution can fill in group/sharing fields after the
  /// per-query run completes.
  std::shared_ptr<obs::ExecutionReport> report;
};

/// Per-query diagnostics of one RunScheduled call (an ExecuteBatch call or
/// a serving window). The per-query QueryOutput (including its CostMeter)
/// is bit-identical to a standalone Execute; these stats record what the
/// batch layer *actually* spent on top of that accounting — i.e. which
/// charged NN work was served from another query's sweep instead of being
/// recomputed.
struct BatchQueryStats {
  /// Shared-plan group this query executed in (index into the batch's
  /// first-appearance group order).
  int64_t group = 0;
  /// Specialized-NN per-frame inferences served from the batch's shared
  /// sweeps (charged to this query's meter, computed by another query).
  int64_t shared_nn_frames = 0;
  /// Per-frame filter scores served from the batch's shared sweeps.
  int64_t shared_filter_frames = 0;
  /// Trained NN weight blobs reused from the batch (0 or 1).
  int64_t shared_models = 0;
  /// Simulated seconds the query charges standalone
  /// (== QueryOutput::cost.TotalSeconds()).
  double standalone_seconds = 0.0;
  /// Standalone seconds minus the NN training/inference the shared sweeps
  /// absorbed: what this query actually added to the batch.
  double batch_seconds = 0.0;
};

/// Result of BlazeItEngine::RunScheduled (and so of ExecuteBatch).
struct BatchOutput {
  /// One entry per input query, in input order. Failures (parse errors,
  /// unknown streams, executor errors) land here per query, exactly as the
  /// corresponding serial Execute call would return them.
  std::vector<Result<QueryOutput>> results;
  /// Parallel to `results`. For failed queries the entry is default
  /// (all-zero). Sharing counters can vary with scheduling when *different*
  /// groups race on overlapping cache keys (e.g. two selection classes
  /// sharing one content-filter sweep); query outputs never do.
  std::vector<BatchQueryStats> stats;
  /// Number of shared-plan groups the optimizer pass formed.
  int64_t groups = 0;
  /// Sums of the per-query stats over the successful queries.
  double standalone_seconds = 0.0;
  double batch_seconds = 0.0;
};

/// A parsed + analyzed query bound to its stream, ready to execute.
struct PreparedQuery {
  StreamData* stream = nullptr;
  AnalyzedQuery query;
};

/// One admitted query (BlazeItEngine::Admit), held until RunScheduled
/// executes it. A prepare error stays in `prepared`, so it lands in the
/// query's own result slot — where a serial Execute reports it.
struct ScheduledQuery {
  Result<PreparedQuery> prepared{Status::Internal("query not admitted")};
  /// Original query text (feeds ExecutionReports and the flight record).
  std::string frameql;
  /// Per-query trace (null unless collect_reports). Only ever written by
  /// the one thread executing this query, which is what keeps batch
  /// tracing free of cross-query bleed.
  std::shared_ptr<obs::QueryTrace> trace;
  /// Process-unique id minted at admission (prepare errors too), threaded
  /// through log lines (cid=N fields) and the flight recorder so one
  /// query's lifecycle can be grepped end to end. Never part of query
  /// outputs or reports — ids differ across runs, and outputs must not.
  int64_t correlation_id = -1;
  /// SharedSweepGroupKey(query, <admission position>); 0 on a prepare
  /// error, which joins no group.
  uint64_t group_key = 0;
  /// Serving tenant, for the flight record; empty outside serving.
  std::string client;
  /// Load shedding: run the query's cheap plan instead of the optimizer's
  /// — aqp-aggregation (plain AQP over the query's window) for aggregates,
  /// scan-scrubbing for scrubbing — in a group of its own, with the
  /// downgrade in the plan description and the report's accuracy tier.
  /// Only those two kinds have a cheap plan; set it for no other.
  bool degraded = false;
};

/// Flight-records one finished query in obs::FlightRecorder::Global() —
/// the recorder's only writer. The accuracy tier is the report's when
/// there is one, else "full" (or "degraded" for a load-shed query).
/// Observe-only: ids and wall times never feed back into outputs or
/// reports.
void RecordFlight(const ScheduledQuery& query,
                  const Result<QueryOutput>& result, double wall_ms);

/// The BlazeIt engine: the public entry point tying everything together.
/// Parse -> analyze -> rule-based plan choice -> execute (Figure 2).
///
///   VideoCatalog catalog;
///   catalog.AddStream(TaipeiConfig());
///   BlazeItEngine engine(&catalog);
///   auto out = engine.Execute(
///       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
///       "ERROR WITHIN 0.1 AT CONFIDENCE 95%");
class BlazeItEngine {
 public:
  /// `catalog` must outlive the engine.
  explicit BlazeItEngine(VideoCatalog* catalog, EngineOptions options = {});
  ~BlazeItEngine();
  BlazeItEngine(const BlazeItEngine&) = delete;
  BlazeItEngine& operator=(const BlazeItEngine&) = delete;

  /// Parses, optimizes, and executes one FrameQL query: a run of one
  /// admitted query with no shared tier.
  Result<QueryOutput> Execute(const std::string& frameql);

  /// Multi-query batch execution: admits every query up front, then runs
  /// them all in one RunScheduled call over a SharedSweepCache fresh per
  /// call, under the exec pool's analytics budget.
  ///
  /// Determinism contract: results[i] — answer, frames, rows, and the
  /// simulated CostMeter — is bit-identical to Execute(queries[i]) at any
  /// thread count (asserted by tests/batch_determinism_test.cc). The
  /// batch-level savings show up in BatchOutput's stats, not in the
  /// per-query meters, which keep standalone accounting.
  Result<BatchOutput> ExecuteBatch(const std::vector<std::string>& queries);

  /// Parses, binds, and analyzes one query without executing it. `trace`
  /// (nullable) records the parse/analyze spans. Thread-safe: the catalog
  /// is read-only after setup, so concurrent Prepare calls (the serving
  /// layer admits at Submit time) never race.
  Result<PreparedQuery> Prepare(const std::string& frameql,
                                obs::QueryTrace* trace = nullptr);

  /// The front half of every entry point: prepares `frameql` (into a new
  /// trace when collect_reports is on), mints its correlation id and
  /// derives its shared-plan group key from `position`, which must be
  /// unique among the queries of one RunScheduled call (plans that train
  /// nothing get a singleton group keyed by it). Thread-safe like Prepare.
  ScheduledQuery Admit(const std::string& frameql, size_t position);

  /// Called as each query's slot completes, from whichever pool worker ran
  /// its group — must be thread-safe. The serving layer streams responses
  /// back through it as their group finishes. The callback may move the
  /// result out; the slot in BatchOutput::results then keeps only its
  /// status (ok() stays valid).
  using ResultCallback =
      std::function<void(size_t index, Result<QueryOutput>&& result,
                         const BatchQueryStats& stats)>;

  /// The back half of every entry point. Groups the admitted queries by
  /// group key (first-appearance order; prepare errors join no group and
  /// complete first, degraded queries get a group each), runs the groups
  /// concurrently on the exec pool under `budget` while queries inside a
  /// group run serially, leader first, and feeds each query through its
  /// own SweepCacheView over `sweeps` so one NN training run and per-frame
  /// sweep serve the whole group. A null
  /// `sweeps` gives every query the standalone view (no shared tier, and
  /// report->batch_group stays -1). Every query is flight-recorded on
  /// completion, with wall time measured from the start of the run.
  ///
  /// Determinism contract: results[i] — the answer, frames, rows, and
  /// simulated CostMeter — is bit-identical to a standalone Execute of the
  /// same query at any thread count. Sharing counters in `stats` can vary
  /// with scheduling when *different* groups race on overlapping cache
  /// keys; query outputs never do.
  BatchOutput RunScheduled(std::vector<ScheduledQuery> queries,
                           SharedSweepCache* sweeps,
                           exec::ThreadPool::Budget budget,
                           const ResultCallback& on_result = nullptr);

  /// UDFs available to queries (register custom ones here).
  UdfRegistry* mutable_udfs() { return &udfs_; }
  const UdfRegistry& udfs() const { return udfs_; }

  const EngineOptions& options() const { return options_; }
  EngineOptions* mutable_options() { return &options_; }

 private:
  /// Plan choice (or the cheap plan of a degraded query) + dispatch of one
  /// admitted, successfully prepared query. `cache` is the query's own
  /// view onto the artifact tiers and counts its traffic for the report;
  /// the query's text and trace feed the ExecutionReport when
  /// options_.collect_reports is on. Only RunScheduled calls it.
  Result<QueryOutput> ExecutePrepared(const ScheduledQuery& scheduled,
                                      SweepCacheView* cache);

  Result<QueryOutput> ExecuteCountDistinct(StreamData* stream,
                                           const AnalyzedQuery& query,
                                           obs::QueryTrace* trace,
                                           obs::ExecutionReport* report);
  Result<QueryOutput> ExecuteBinarySelect(StreamData* stream,
                                          const AnalyzedQuery& query,
                                          ArtifactCache* cache,
                                          obs::QueryTrace* trace);
  Result<QueryOutput> ExecuteFullScan(StreamData* stream,
                                      const AnalyzedQuery& query,
                                      obs::QueryTrace* trace,
                                      obs::ExecutionReport* report);

  VideoCatalog* catalog_;
  EngineOptions options_;
  UdfRegistry udfs_;
  /// StatusRegistry tokens held while options_.export_statusz.
  std::vector<int64_t> statusz_tokens_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_ENGINE_H_
