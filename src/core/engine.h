#ifndef BLAZEIT_CORE_ENGINE_H_
#define BLAZEIT_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/catalog.h"
#include "core/optimizer.h"
#include "core/scrubbing.h"
#include "core/selection.h"
#include "core/udf.h"
#include "obs/report.h"
#include "sim/cost_model.h"
#include "storage/segment_sketch.h"
#include "util/status.h"

namespace blazeit {

class QueryScheduler;  // core/scheduler.h
class SweepCacheView;  // core/shared_sweep.h

/// Per-query execution options forwarded to the executors.
struct EngineOptions {
  AggregateOptions aggregate;
  ScrubOptions scrub;
  SelectionOptions selection;
  /// Consult the detection store's per-segment sketches (built with
  /// DetectionStore::BuildSketches or `storecli sketch rebuild`) so full
  /// scans, count-distinct, and scrubbing skip provably non-matching
  /// segments without decoding them. Outputs are bit-identical to the
  /// unindexed path (sketch_invariance_test); only the charged detector
  /// and NN calls drop. Off by default so cost accounting stays identical
  /// with and without a store (the store_invariance_test contract); a
  /// no-op for streams without a store or without current sketches.
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

/// Per-query diagnostics of one ExecuteBatch call. The per-query
/// QueryOutput (including its CostMeter) is bit-identical to a standalone
/// Execute; these stats record what the batch layer *actually* spent on
/// top of that accounting — i.e. which charged NN work was served from
/// another query's sweep instead of being recomputed.
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

/// Result of BlazeItEngine::ExecuteBatch.
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

/// A parsed + analyzed query bound to its stream, ready to execute — the
/// front half of Execute, split out so schedulers (QueryScheduler, the
/// serving layer's AdmissionQueue) can prepare queries at admission time
/// and execute them later.
struct PreparedQuery {
  StreamData* stream = nullptr;
  AnalyzedQuery query;
  /// Process-unique id minted at Prepare time, threaded through log lines
  /// (cid=N fields) and the flight recorder so one query's lifecycle can
  /// be grepped end to end. Never part of query outputs or reports — ids
  /// differ across runs, and outputs must not.
  int64_t correlation_id = -1;
};

/// Candidate subranges of `window` under the stream's sketch index for
/// `probe`, or the whole window (nothing when it is empty) when
/// `use_store_index` is off, the stream has no store, or no current index
/// exists. `sketch` (nullable) receives the consultation outcome for the
/// query's ExecutionReport. The one front end of the sketch-pruned scans
/// (full scan, count-distinct, the serving layer's load-shed scan);
/// scrubbing loads the index itself, because it reuses it for its
/// density-first order.
std::vector<SketchIndex::FrameRange> SketchCandidateRanges(
    const StreamData& stream, FrameWindow window, const SketchProbe& probe,
    bool use_store_index, obs::SketchStats* sketch);

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

  /// Parses, optimizes, and executes one FrameQL query.
  Result<QueryOutput> Execute(const std::string& frameql);

  /// Multi-query batch execution: parses and analyzes every query up
  /// front, groups them by shared specialized-NN work (stream × NN config
  /// × queried classes — see SharedSweepGroupKey), and executes the
  /// groups concurrently on the exec pool while queries inside a group
  /// run serially so one NN training run and one per-frame sweep feed the
  /// whole group through one SharedSweepCache, fresh per call.
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
  /// layer prepares at admission time) never race.
  Result<PreparedQuery> Prepare(const std::string& frameql,
                                obs::QueryTrace* trace = nullptr);

  /// UDFs available to queries (register custom ones here).
  UdfRegistry* mutable_udfs() { return &udfs_; }
  const UdfRegistry& udfs() const { return udfs_; }

  const EngineOptions& options() const { return options_; }
  EngineOptions* mutable_options() { return &options_; }

 private:
  /// QueryScheduler executes prepared queries against shared sweeps on
  /// the engine's behalf; the dispatch below stays private so every other
  /// caller goes through Execute/ExecuteBatch.
  friend class QueryScheduler;

  /// Plan choice + dispatch. `cache` is the query's own view onto the
  /// artifact tiers (the scheduler's shared sweeps, when batched, over the
  /// stream's persistent cache) and counts its traffic for the report;
  /// `frameql` and `trace` feed the ExecutionReport when
  /// options_.collect_reports is on (trace is null otherwise). The
  /// prepared query's correlation id tags the plan-choice log line (cid=N).
  Result<QueryOutput> ExecutePrepared(const PreparedQuery& prepared,
                                      SweepCacheView* cache,
                                      const std::string& frameql,
                                      std::shared_ptr<obs::QueryTrace> trace);

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
