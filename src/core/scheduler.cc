#include "core/scheduler.h"

#include <algorithm>
#include <unordered_map>

namespace blazeit {

ScheduleOutcome QueryScheduler::Run(const std::vector<ScheduledQuery>& queries,
                                    exec::ThreadPool::Budget budget,
                                    const ResultCallback& on_result) {
  const size_t n = queries.size();
  ScheduleOutcome out;
  out.results.assign(
      n, Result<QueryOutput>(Status::Internal("query not executed")));
  out.stats.assign(n, BatchQueryStats{});

  // --- shared-plan pass: group by the caller's group tag ---
  // Groups keep first-appearance order and queries keep submission order
  // within a group, so the leader of each group — the query that pays for
  // the group's training run and sweeps — is always the earliest one.
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<uint64_t, size_t> key_to_group;
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = key_to_group.emplace(queries[i].group_key,
                                               groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  out.groups = static_cast<int64_t>(groups.size());

  // --- run the groups concurrently, each group serially ---
  // Per-query results/stats go to disjoint slots; per-query outputs are
  // independent of scheduling because every cache hit is bit-identical to
  // recomputation (the ArtifactCache contract), so this parallelism — like
  // the exec pool's — cannot change output bits.
  //
  // Parallelism shape: with a single group RunShards executes inline on
  // the caller (no nested-section marking), so the group's NN
  // training/inference keeps full intra-query sharding. With multiple
  // groups the pool parallelizes *across* groups and each query's inner
  // parallel sections run inline on that group's worker — batch-level
  // concurrency replaces intra-query concurrency, keeping total CPU use
  // bounded by the one process-wide pool.
  exec::ThreadPool::Instance().RunShards(
      static_cast<int64_t>(groups.size()),
      [&](int64_t g, int /*slot*/) {
        for (size_t idx : groups[static_cast<size_t>(g)]) {
          const ScheduledQuery& q = queries[idx];
          SweepCacheView view(&sweeps_, q.prepared.stream->artifact_cache);
          Result<QueryOutput> result =
              engine_->ExecutePrepared(q.prepared, &view, q.frameql, q.trace);
          // Stats are filled only for successful queries (the documented
          // all-zero contract for failures).
          if (result.ok()) {
            BatchQueryStats& qs = out.stats[idx];
            qs.group = g;
            qs.shared_nn_frames = view.stats().shared_nn_frames;
            qs.shared_filter_frames = view.stats().shared_filter_frames;
            qs.shared_models = view.stats().shared_models;
            if (result.value().report != nullptr) {
              result.value().report->batch_group = g;
            }
            const CostMeter& cost = result.value().cost;
            qs.standalone_seconds = cost.TotalSeconds();
            double saved = static_cast<double>(qs.shared_nn_frames) *
                               cost.profile().specialized_nn_sec_per_frame +
                           static_cast<double>(qs.shared_filter_frames) *
                               cost.profile().filter_sec_per_frame;
            if (qs.shared_models > 0) saved += cost.training_seconds();
            qs.batch_seconds = std::max(0.0, qs.standalone_seconds - saved);
          }
          out.results[idx] = std::move(result);
          if (on_result) on_result(idx, out.results[idx], out.stats[idx]);
        }
      },
      budget);
  return out;
}

}  // namespace blazeit
