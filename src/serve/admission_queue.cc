#include "serve/admission_queue.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>
#include <utility>

#include "exec/thread_pool.h"
#include "net/http.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace blazeit {
namespace serve {

namespace {

using exec::ThreadPool;

/// Admission counters are functions of the workload and the (virtual-
/// clock) admission schedule, not of pool scheduling, hence kStable; the
/// depth gauge and latency histogram describe queue state over wall
/// interleavings, hence kUnstable.
obs::Counter* SubmittedCounter(const std::string& client) {
  return obs::MetricsRegistry::Global().GetCounter(
      "serve.submitted{client=" + client + "}", obs::Stability::kStable);
}

obs::Counter* RejectedCounter(const char* reason) {
  return obs::MetricsRegistry::Global().GetCounter(
      std::string("serve.rejected{reason=") + reason + "}",
      obs::Stability::kStable);
}

obs::Counter* CancelledCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "serve.cancelled", obs::Stability::kStable);
  return counter;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "serve.queue_depth", obs::Stability::kUnstable);
  return gauge;
}

obs::Histogram* AdmissionLatencyHistogram() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "serve.admission_latency_ticks", {0, 1, 2, 4, 8, 16, 32, 64},
      obs::Stability::kUnstable);
  return hist;
}

}  // namespace

AdmissionQueue::AdmissionQueue(BlazeItEngine* engine, ServeOptions options)
    : engine_(engine), options_(options) {
  ThreadPool& pool = ThreadPool::Instance();
  prev_serving_limit_ = pool.BudgetLimit(ThreadPool::Budget::kServing);
  prev_analytics_limit_ = pool.BudgetLimit(ThreadPool::Budget::kAnalytics);
  if (options_.serving_budget > 0) {
    pool.SetBudgetLimit(ThreadPool::Budget::kServing,
                        options_.serving_budget);
  }
  if (options_.analytics_budget > 0) {
    pool.SetBudgetLimit(ThreadPool::Budget::kAnalytics,
                        options_.analytics_budget);
  }

  statusz_token_ = obs::StatusRegistry::Global().AddSection("serve", [this] {
    ThreadPool& p = ThreadPool::Instance();
    util::MutexLock lock(mu_);
    std::string out = StrFormat(
        "{\"options\":{\"window_ticks\":%lld,\"max_queue_depth\":%lld,"
        "\"per_client_quota\":%lld,\"shed_depth\":%lld,"
        "\"wall_clock_tick_ms\":%lld},\"clock\":%lld,\"queue_depth\":%zu,"
        "\"budgets\":{\"serving\":%d,\"analytics\":%d},"
        "\"stats\":{\"submitted\":%lld,\"rejected_queue_full\":%lld,"
        "\"rejected_quota\":%lld,\"shed\":%lld,\"cancelled\":%lld,"
        "\"batches\":%lld,\"groups\":%lld,\"coalesced_queries\":%lld,"
        "\"cross_client_groups\":%lld,\"standalone_seconds\":%.6f,"
        "\"batch_seconds\":%.6f},\"clients\":[",
        static_cast<long long>(options_.window_ticks),
        static_cast<long long>(options_.max_queue_depth),
        static_cast<long long>(options_.per_client_quota),
        static_cast<long long>(options_.shed_depth),
        static_cast<long long>(options_.wall_clock_tick_ms),
        static_cast<long long>(clock_), pending_.size(),
        p.BudgetLimit(ThreadPool::Budget::kServing),
        p.BudgetLimit(ThreadPool::Budget::kAnalytics),
        static_cast<long long>(stats_.submitted),
        static_cast<long long>(stats_.rejected_queue_full),
        static_cast<long long>(stats_.rejected_quota),
        static_cast<long long>(stats_.shed),
        static_cast<long long>(stats_.cancelled),
        static_cast<long long>(stats_.batches),
        static_cast<long long>(stats_.groups),
        static_cast<long long>(stats_.coalesced_queries),
        static_cast<long long>(stats_.cross_client_groups),
        stats_.standalone_seconds, stats_.batch_seconds);
    bool first = true;
    for (const auto& [client, counters] : client_counters_) {
      if (!first) out += ",";
      first = false;
      int64_t in_queue = 0;
      auto it = client_pending_.find(client);
      if (it != client_pending_.end()) in_queue = it->second;
      out += StrFormat(
          "{\"client\":\"%s\",\"submitted\":%lld,\"rejected\":%lld,"
          "\"shed\":%lld,\"cancelled\":%lld,\"pending\":%lld}",
          net::JsonEscape(client).c_str(),
          static_cast<long long>(counters.submitted),
          static_cast<long long>(counters.rejected),
          static_cast<long long>(counters.shed),
          static_cast<long long>(counters.cancelled),
          static_cast<long long>(in_queue));
    }
    out += "]}";
    return out;
  });

  if (options_.wall_clock_tick_ms > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
}

AdmissionQueue::~AdmissionQueue() {
  if (ticker_.joinable()) {
    {
      util::MutexLock lock(ticker_mu_);
      ticker_stop_ = true;
    }
    ticker_cv_.NotifyAll();
    ticker_.join();
  }
  obs::StatusRegistry::Global().Remove(statusz_token_);
  ThreadPool& pool = ThreadPool::Instance();
  if (options_.serving_budget > 0) {
    pool.SetBudgetLimit(ThreadPool::Budget::kServing, prev_serving_limit_);
  }
  if (options_.analytics_budget > 0) {
    pool.SetBudgetLimit(ThreadPool::Budget::kAnalytics,
                        prev_analytics_limit_);
  }
}

Result<int64_t> AdmissionQueue::Submit(const std::string& client,
                                       const std::string& frameql) {
  // The front half runs before admission (and outside the lock): the
  // catalog is read-only, so concurrent Admit calls are safe, and a parse
  // error must land in the response — the same place serial Execute
  // reports it — not block the admission slot.
  PendingEntry entry;
  entry.query = engine_->Admit(frameql, admissions_.fetch_add(1));
  entry.query.client = client;

  util::MutexLock lock(mu_);
  const int64_t depth = static_cast<int64_t>(pending_.size());
  if (depth >= options_.max_queue_depth) {
    ++stats_.rejected_queue_full;
    ++client_counters_[client].rejected;
    RejectedCounter("queue_full")->Add();
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(depth) + " pending)");
  }
  if (client_pending_[client] >= options_.per_client_quota) {
    ++stats_.rejected_quota;
    ++client_counters_[client].rejected;
    RejectedCounter("quota")->Add();
    return Status::ResourceExhausted(
        "client '" + client + "' is at its quota (" +
        std::to_string(options_.per_client_quota) + " pending)");
  }
  entry.ticket = next_ticket_++;
  ++client_counters_[client].submitted;
  entry.admitted_tick = clock_;
  entry.shed = options_.shed_depth >= 0 && depth >= options_.shed_depth;
  ++stats_.submitted;
  SubmittedCounter(client)->Add();
  ++client_pending_[client];
  if (pending_.empty()) window_open_tick_ = clock_;
  const int64_t ticket = entry.ticket;
  pending_.push_back(std::move(entry));
  QueueDepthGauge()->Set(static_cast<int64_t>(pending_.size()));
  if (options_.window_ticks == 0) RunPending(lock);
  return ticket;
}

void AdmissionQueue::Advance(int64_t ticks) {
  util::MutexLock lock(mu_);
  clock_ += ticks < 0 ? 0 : ticks;
  if (!pending_.empty() &&
      clock_ - window_open_tick_ >= options_.window_ticks) {
    RunPending(lock);
  }
}

void AdmissionQueue::Drain() {
  util::MutexLock lock(mu_);
  if (!pending_.empty()) RunPending(lock);
}

Status AdmissionQueue::Cancel(int64_t ticket) {
  PendingEntry entry;
  ServeResponse resp;
  {
    util::MutexLock lock(mu_);
    auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [ticket](const PendingEntry& e) { return e.ticket == ticket; });
    if (it == pending_.end()) {
      return Status::NotFound("ticket " + std::to_string(ticket) +
                              " is not pending (unknown, already executed, "
                              "or its window already cut)");
    }
    entry = std::move(*it);
    resp = ResponseFor(entry, clock_);
    // The quota slot frees now — a client may cancel-and-resubmit within
    // one window without tripping its own quota.
    auto pending_it = client_pending_.find(entry.query.client);
    if (pending_it != client_pending_.end() && pending_it->second > 0) {
      --pending_it->second;
    }
    ++stats_.cancelled;
    ++client_counters_[entry.query.client].cancelled;
    CancelledCounter()->Add();
    pending_.erase(it);
    QueueDepthGauge()->Set(static_cast<int64_t>(pending_.size()));
  }
  resp.output = Status::Cancelled("cancelled before execution");
  RecordFlight(entry.query, resp.output, /*wall_ms=*/0.0);
  // Deliver takes mu_ itself.
  Deliver(std::move(resp));
  return Status::OK();
}

void AdmissionQueue::TickerLoop() {
  const auto period = std::chrono::milliseconds(options_.wall_clock_tick_ms);
  util::MutexLock lock(ticker_mu_);
  while (!ticker_stop_) {
    if (ticker_cv_.WaitFor(ticker_mu_, period,
                           [this]() BLAZEIT_NO_THREAD_SAFETY_ANALYSIS {
                             return ticker_stop_;
                           })) {
      return;
    }
    // Advance takes mu_ (and may execute a window); drop ticker_mu_ so a
    // concurrent destructor's stop signal never waits on a running batch.
    lock.Unlock();
    Advance(1);
    lock.Lock();
  }
}

std::vector<ServeResponse> AdmissionQueue::TakeCompleted() {
  util::MutexLock lock(mu_);
  std::vector<ServeResponse> out = std::move(completed_);
  completed_.clear();
  return out;
}

int64_t AdmissionQueue::now() const {
  util::MutexLock lock(mu_);
  return clock_;
}

int64_t AdmissionQueue::queue_depth() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

ServerStats AdmissionQueue::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

ServeResponse AdmissionQueue::ResponseFor(const PendingEntry& entry,
                                          int64_t tick) {
  ServeResponse resp;
  resp.ticket = entry.ticket;
  resp.correlation_id = entry.query.correlation_id;
  resp.client = entry.query.client;
  resp.frameql = entry.query.frameql;
  resp.admitted_tick = entry.admitted_tick;
  resp.executed_tick = tick;
  resp.degraded = entry.query.degraded;
  return resp;
}

void AdmissionQueue::Deliver(ServeResponse&& response) {
  util::MutexLock lock(mu_);
  if (response.degraded) ++client_counters_[response.client].shed;
  AdmissionLatencyHistogram()->Observe(response.executed_tick -
                                       response.admitted_tick);
  completed_.push_back(std::move(response));
}

std::map<std::string, AdmissionQueue::ClientCounters>
AdmissionQueue::client_counters() const {
  util::MutexLock lock(mu_);
  return client_counters_;
}

void AdmissionQueue::RunPending(util::MutexLock& lock) {
  mu_.AssertHeld();
  // Cut the batch under mu_, then execute with only exec_mu_ held:
  // submissions keep flowing into the next window while this one runs,
  // and concurrently closed windows execute one at a time in cut order.
  std::vector<PendingEntry> batch = std::move(pending_);
  pending_.clear();
  client_pending_.clear();
  const int64_t executed_tick = clock_;
  QueueDepthGauge()->Set(0);
  lock.Unlock();

  util::MutexLock exec_lock(exec_mu_);
  static obs::Counter* batches_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.batches",
                                                obs::Stability::kStable);
  static obs::Counter* shed_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shed",
                                                obs::Stability::kStable);
  batches_counter->Add();

  // Every entry — shed and prepare errors included — goes to one
  // RunScheduled call against the queue's sweeps (warm across windows); a
  // shed aggregate or scrubbing query runs there as a degraded query, on
  // the engine's cheap plan. The callback streams each response out as its
  // group completes, from whichever pool worker ran it.
  const size_t n = batch.size();
  std::vector<ServeResponse> shells(n);
  std::vector<ScheduledQuery> scheduled;
  scheduled.reserve(n);
  int64_t shed_this_batch = 0;
  for (size_t i = 0; i < n; ++i) {
    PendingEntry& entry = batch[i];
    const Result<PreparedQuery>& prepared = entry.query.prepared;
    entry.query.degraded =
        entry.shed && prepared.ok() &&
        (prepared.value().query.kind == QueryKind::kAggregate ||
         prepared.value().query.kind == QueryKind::kScrubbing);
    if (entry.query.degraded) {
      shed_counter->Add();
      ++shed_this_batch;
    }
    shells[i] = ResponseFor(entry, executed_tick);
    scheduled.push_back(std::move(entry.query));
  }

  BatchOutput outcome = engine_->RunScheduled(
      std::move(scheduled), &sweeps_, ThreadPool::Budget::kServing,
      [&](size_t i, Result<QueryOutput>&& result,
          const BatchQueryStats& stats) {
        ServeResponse resp = shells[i];
        resp.output = std::move(result);
        resp.stats = stats;
        Deliver(std::move(resp));
      });

  // Cumulative coalescing accounting: which groups spanned clients, and
  // how much charged NN work the shared sweeps absorbed this window.
  std::unordered_map<int64_t, int64_t> group_sizes;
  std::unordered_map<int64_t, std::set<std::string>> group_clients;
  util::MutexLock stats_lock(mu_);
  ++stats_.batches;
  stats_.shed += shed_this_batch;
  stats_.groups += outcome.groups;
  for (size_t i = 0; i < n; ++i) {
    if (!outcome.results[i].ok()) continue;
    const BatchQueryStats& qs = outcome.stats[i];
    ++group_sizes[qs.group];
    group_clients[qs.group].insert(shells[i].client);
    stats_.shared_nn_frames += qs.shared_nn_frames;
    stats_.shared_filter_frames += qs.shared_filter_frames;
    stats_.shared_models += qs.shared_models;
    stats_.standalone_seconds += qs.standalone_seconds;
    stats_.batch_seconds += qs.batch_seconds;
  }
  for (const auto& [group, size] : group_sizes) {
    if (size > 1) stats_.coalesced_queries += size;
  }
  for (const auto& [group, clients] : group_clients) {
    if (clients.size() > 1) ++stats_.cross_client_groups;
  }
}

}  // namespace serve
}  // namespace blazeit
