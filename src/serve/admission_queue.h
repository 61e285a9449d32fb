#ifndef BLAZEIT_SERVE_ADMISSION_QUEUE_H_
#define BLAZEIT_SERVE_ADMISSION_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_sweep.h"
#include "util/mutex.h"

namespace blazeit {
namespace serve {

/// Knobs of the multi-tenant serving core. Defaults are permissive: a
/// one-tick window, deep queue, generous quota, shedding off.
struct ServeOptions {
  /// Virtual-clock ticks an admission window stays open: queries admitted
  /// while a window is open coalesce into one BlazeItEngine::RunScheduled
  /// call (cross-client shared sweeps). 0 = pass-through — every Submit
  /// executes its query immediately and returns with the response already
  /// completed.
  int64_t window_ticks = 1;
  /// Bound on queries admitted-but-not-yet-executed. A Submit past the
  /// bound fails with ResourceExhausted instead of queueing unboundedly.
  int64_t max_queue_depth = 256;
  /// Per-client bound on pending queries (fairness: one chatty client
  /// cannot fill the whole queue). Exceeding it is ResourceExhausted.
  int64_t per_client_quota = 32;
  /// Load shedding: an aggregate or scrubbing query admitted while the
  /// pending depth is at or above this runs as a degraded query
  /// (ScheduledQuery::degraded) on the engine's cheap plan instead of the
  /// optimizer's: plain AQP over the query's window for aggregates, the
  /// sequential scan (sketch-pruned when the index is on) for scrubbing.
  /// Other kinds always run the full plan. The downgrade is reported in
  /// the response and its ExecutionReport accuracy_tier. < 0 disables
  /// shedding.
  int64_t shed_depth = -1;
  /// Worker caps applied to the process pool's sub-pool budgets while
  /// this queue exists (<= 0 leaves a budget unlimited): `serving_budget`
  /// caps the queue's own jobs, `analytics_budget` caps concurrent
  /// ExecuteBatch/training work so it cannot starve serving. Previous
  /// caps are restored on destruction.
  int serving_budget = 0;
  int analytics_budget = 0;
  /// Wall-clock window driver (opt-in): > 0 starts a timer thread that
  /// calls Advance(1) every this-many milliseconds, so windows cut on
  /// real time without the caller driving the clock. 0 (default) keeps
  /// time fully virtual — the deterministic mode every replay test uses.
  int64_t wall_clock_tick_ms = 0;
};

/// One submitted query's response. `output` and its CostMeter are
/// bit-identical to a serial engine.Execute of the same query unless
/// `degraded` is set (the only case where charged work differs).
struct ServeResponse {
  int64_t ticket = -1;
  std::string client;
  std::string frameql;
  /// Correlation id minted at admission (matches the query's cid=N log
  /// fields and its /tracez flight record). Not part of `output`.
  int64_t correlation_id = -1;
  int64_t admitted_tick = 0;
  int64_t executed_tick = 0;
  /// Load shedding downgraded this query to the engine's cheap plan.
  bool degraded = false;
  Result<QueryOutput> output{Status::Internal("pending")};
  /// Shared-sweep accounting within the coalesced batch (group index,
  /// NN frames / models served from another client's sweep). All-zero
  /// for failed queries; a degraded query has a group of its own and
  /// shares nothing.
  BatchQueryStats stats;
};

/// Cumulative counters over the queue's lifetime (the BatchQueryStats
/// totals, aggregated across admission windows).
struct ServerStats {
  int64_t submitted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_quota = 0;
  int64_t shed = 0;
  /// Pending queries withdrawn via Cancel before their window cut.
  int64_t cancelled = 0;
  /// Admission windows executed.
  int64_t batches = 0;
  /// Shared-plan groups across all batches.
  int64_t groups = 0;
  /// Queries that shared a group with at least one other query.
  int64_t coalesced_queries = 0;
  /// Groups whose members came from more than one client — the
  /// cross-client amortization ExecuteBatch alone cannot reach.
  int64_t cross_client_groups = 0;
  int64_t shared_nn_frames = 0;
  int64_t shared_filter_frames = 0;
  int64_t shared_models = 0;
  double standalone_seconds = 0.0;
  double batch_seconds = 0.0;
};

/// The multi-tenant serving core: a bounded admission queue in front of
/// BlazeItEngine::RunScheduled. Arriving queries are admitted
/// (BlazeItEngine::Admit) at Submit time, held for the batching window,
/// coalesced *across clients* by SharedSweepGroupKey, executed as one
/// RunScheduled call over the queue's own sweeps (which stay warm across
/// windows), and streamed into the completed set as their group finishes.
///
/// Time is a deterministic virtual clock advanced by Advance(), so tests
/// replay admission schedules exactly. Determinism contract: with a fixed
/// admission order, every non-degraded response's output — answer,
/// frames, rows, simulated CostMeter — is bit-identical to serial
/// engine.Execute at any pool size (tests/serve_determinism_test.cc);
/// coalescing only drops *charged* work, visible in stats.
///
/// Thread-safe: Submit/Advance/Drain/TakeCompleted may be called from
/// concurrent client threads. Batches execute one at a time, in the order
/// their windows closed.
class AdmissionQueue {
 public:
  /// `engine` (and its catalog) must outlive the queue.
  AdmissionQueue(BlazeItEngine* engine, ServeOptions options = {});
  ~AdmissionQueue();
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits one query for `client`, returning its ticket. Parse/analyze
  /// errors are *admitted* and land in the response's output — exactly
  /// where a serial Execute would report them; only capacity produces a
  /// Submit error: ResourceExhausted when the queue is full or the
  /// client's quota is spent.
  Result<int64_t> Submit(const std::string& client, const std::string& frameql)
      BLAZEIT_EXCLUDES(mu_);

  /// Advances the virtual clock. If the advance closes the open admission
  /// window, the pending batch executes before returning (on the calling
  /// thread, helped by the pool under the serving budget).
  void Advance(int64_t ticks = 1) BLAZEIT_EXCLUDES(mu_);

  /// Executes whatever is pending regardless of window state.
  void Drain() BLAZEIT_EXCLUDES(mu_);

  /// Withdraws a not-yet-cut pending query: the ticket's entry leaves the
  /// queue, its quota slot frees immediately, and a response carrying
  /// Status::Cancelled lands in the completed set (so callers matching by
  /// ticket always get exactly one response). NotFound if the ticket is
  /// unknown or its window already cut — execution is never interrupted.
  Status Cancel(int64_t ticket) BLAZEIT_EXCLUDES(mu_);

  /// Moves out every response completed so far. Order follows group
  /// completion (streaming), not admission; match by ticket.
  std::vector<ServeResponse> TakeCompleted() BLAZEIT_EXCLUDES(mu_);

  int64_t now() const BLAZEIT_EXCLUDES(mu_);
  int64_t queue_depth() const BLAZEIT_EXCLUDES(mu_);
  ServerStats stats() const BLAZEIT_EXCLUDES(mu_);
  const ServeOptions& options() const { return options_; }

  /// Lifetime per-tenant accounting (rendered in the /statusz "serve"
  /// section alongside the aggregate ServerStats).
  struct ClientCounters {
    int64_t submitted = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
    int64_t cancelled = 0;
  };
  std::map<std::string, ClientCounters> client_counters() const
      BLAZEIT_EXCLUDES(mu_);

 private:
  struct PendingEntry {
    /// The engine's admission of the query, `client` set.
    ScheduledQuery query;
    int64_t ticket = -1;
    int64_t admitted_tick = 0;
    bool shed = false;
  };

  /// Cuts the pending batch and executes it. Entered with `lock` held on
  /// mu_; unlocks it before executing (so Submit keeps working into the
  /// next window) and leaves it unlocked. The hand-off through a scoped-
  /// lock reference is beyond the static analysis (which cannot track a
  /// capability through a reference parameter), so the entry contract is
  /// asserted at runtime instead.
  void RunPending(util::MutexLock& lock) BLAZEIT_NO_THREAD_SAFETY_ANALYSIS;

  /// Response shell of `entry` (output still pending), cut at `tick`.
  static ServeResponse ResponseFor(const PendingEntry& entry, int64_t tick);

  /// Moves the response into the completed set. Flight recording is the
  /// caller's: RunScheduled records what it runs, and Cancel calls
  /// RecordFlight itself.
  void Deliver(ServeResponse&& response) BLAZEIT_EXCLUDES(mu_);

  /// The wall-clock window driver (runs only when wall_clock_tick_ms>0).
  void TickerLoop();

  BlazeItEngine* engine_;
  ServeOptions options_;
  /// Shared-plan tier of every window, warm across windows.
  SharedSweepCache sweeps_;
  /// Admission positions: unique per query, which is all the group keys
  /// of one run need.
  std::atomic<size_t> admissions_{0};
  int prev_serving_limit_ = 0;
  int prev_analytics_limit_ = 0;
  int64_t statusz_token_ = 0;

  mutable util::Mutex mu_;
  /// Serializes batch execution; taken only with mu_ released.
  util::Mutex exec_mu_;
  int64_t clock_ BLAZEIT_GUARDED_BY(mu_) = 0;
  int64_t window_open_tick_ BLAZEIT_GUARDED_BY(mu_) = 0;
  int64_t next_ticket_ BLAZEIT_GUARDED_BY(mu_) = 0;
  std::vector<PendingEntry> pending_ BLAZEIT_GUARDED_BY(mu_);
  std::map<std::string, int64_t> client_pending_ BLAZEIT_GUARDED_BY(mu_);
  std::vector<ServeResponse> completed_ BLAZEIT_GUARDED_BY(mu_);
  ServerStats stats_ BLAZEIT_GUARDED_BY(mu_);
  std::map<std::string, ClientCounters> client_counters_
      BLAZEIT_GUARDED_BY(mu_);

  /// Ticker state has its own mutex so stopping never contends with a
  /// window executing under mu_/exec_mu_.
  util::Mutex ticker_mu_;
  util::CondVar ticker_cv_;
  bool ticker_stop_ BLAZEIT_GUARDED_BY(ticker_mu_) = false;
  std::thread ticker_;
};

}  // namespace serve
}  // namespace blazeit

#endif  // BLAZEIT_SERVE_ADMISSION_QUEUE_H_
