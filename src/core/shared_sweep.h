#ifndef BLAZEIT_CORE_SHARED_SWEEP_H_
#define BLAZEIT_CORE_SHARED_SWEEP_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "util/artifact_cache.h"
#include "util/mutex.h"

namespace blazeit {

/// The in-memory artifact tier that makes multi-query batching pay: one
/// SharedSweepCache is shared by every query of a
/// BlazeItEngine::RunScheduled call (a fresh one per ExecuteBatch call;
/// one kept warm across admission windows by the serving layer), so the
/// first query of a shared-plan group trains the specialized NN and runs
/// the per-frame sweeps, and the rest of the group reads the identical
/// floats back instead of recomputing them. Keys
/// are the same content fingerprints the persistent ArtifactCache uses, so
/// a hit is bit-identical to recomputation and query outputs/simulated
/// costs never depend on cache state.
///
/// Thread-safe (independent groups run concurrently on the exec pool);
/// first write wins, which is benign for the same reason the detection
/// store's rule is: values are deterministic per key, so a racing
/// duplicate insert carries identical bytes.
///
/// Unbounded by design: the cache is scoped to one batch or queue, and holds
/// full-day sweep rows for every (stream, NN, class) it has served — a few
/// MB each. A long-lived serving queue over a varied query mix should be
/// recycled periodically (or gain eviction when the ROADMAP's
/// sharded-serving layer lands); the persistent store underneath loses
/// nothing.
class SharedSweepCache {
 public:
  SharedSweepCache() = default;
  SharedSweepCache(const SharedSweepCache&) = delete;
  SharedSweepCache& operator=(const SharedSweepCache&) = delete;

 private:
  friend class SweepCacheView;

  using Key = std::pair<uint64_t, int64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splittable mix of (namespace, frame); collisions only cost a probe.
      uint64_t h = k.first ^ (static_cast<uint64_t>(k.second) *
                              0x9E3779B97F4A7C15ull);
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  template <typename T>
  using RowMap = std::unordered_map<Key, std::vector<T>, KeyHash>;

  /// The per-frame row map of one value type (floats_ or doubles_).
  template <typename T>
  RowMap<T>& Rows() BLAZEIT_REQUIRES(mu_) {
    if constexpr (std::is_same_v<T, float>) {
      return floats_;
    } else {
      return doubles_;
    }
  }

  /// Ranged read under one lock: copies every resident row of exactly
  /// `width` values into `out` and returns the missed indices, ascending.
  template <typename T>
  std::vector<size_t> GetRows(uint64_t ns, std::span<const int64_t> frames,
                              size_t width, std::span<T> out)
      BLAZEIT_EXCLUDES(mu_);
  /// Inserts rows[i * width, (i + 1) * width) for frames[i], for each i
  /// of `indices`, under one lock; first write wins.
  template <typename T>
  void PutRows(uint64_t ns, std::span<const int64_t> frames, size_t width,
               std::span<const T> rows, const std::vector<size_t>& indices)
      BLAZEIT_EXCLUDES(mu_);
  template <typename T>
  void PutRow(uint64_t ns, int64_t frame, const std::vector<T>& row)
      BLAZEIT_EXCLUDES(mu_);
  bool GetBlob(uint64_t ns, std::vector<float>* out) const
      BLAZEIT_EXCLUDES(mu_);
  void PutBlob(uint64_t ns, const std::vector<float>& v) BLAZEIT_EXCLUDES(mu_);

  mutable util::Mutex mu_;
  RowMap<float> floats_ BLAZEIT_GUARDED_BY(mu_);
  RowMap<double> doubles_ BLAZEIT_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::vector<float>> blobs_
      BLAZEIT_GUARDED_BY(mu_);
};

/// One query's artifact cache: every executed query reads and writes
/// through exactly one view. The view reads the shared tier first (when
/// it has one), then the stream's persistent cache (when the catalog has
/// one), and promotes persistent hits into the shared tier so the rest of
/// the batch stays in memory. Writes go to both tiers, so batching never
/// loses persistence. Without a shared tier a ranged read goes straight
/// into the caller's buffer; without either tier every read misses and
/// every write is dropped, which is exactly cache-less execution.
///
/// The view counts the query's per-kind hits and misses (any tier) and how
/// much of its NN work the *shared* tier absorbed — the numbers behind the
/// ExecutionReport's cache line and BatchQueryStats. A hit this view takes
/// directly on the persistent tier is not counted as shared (serial
/// execution would have been served by it too); it is promoted, though,
/// so a *later* query's consumption of the same row counts as shared.
/// That keeps the stats independent of store temperature — a follower's
/// dedup reads the same whether the leader computed the sweep or replayed
/// it — matching the simulated cost model, which charges NN work
/// regardless of cache state. The shared counts therefore measure "charged
/// NN work served by the batch tier", not physical FLOPs avoided; on a
/// warm store the physical savings are smaller (wall-clock shows those).
/// Counting only observes: a hit is bit-identical to recomputation.
///
/// Not thread-safe across queries: each executed query gets its own view
/// (the underlying SharedSweepCache carries the locking).
class SweepCacheView final : public ArtifactCache {
 public:
  /// Either tier may be nullptr: `shared` for standalone execution,
  /// `underlying` for a catalog without a detection store.
  SweepCacheView(SharedSweepCache* shared, ArtifactCache* underlying)
      : shared_(shared), underlying_(underlying) {}

  std::vector<size_t> GetFrameFloatRows(uint64_t ns,
                                        std::span<const int64_t> frames,
                                        size_t width,
                                        std::span<float> out) override;
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override;
  std::vector<size_t> GetFrameDoubleRows(uint64_t ns,
                                         std::span<const int64_t> frames,
                                         size_t width,
                                         std::span<double> out) override;
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override;
  bool GetBlob(uint64_t ns, std::vector<float>* out) override;
  void PutBlob(uint64_t ns, const std::vector<float>& values) override;

  /// This query's traffic so far. shared_nn_frames counts per-frame NN
  /// output rows the shared tier served (inference another query already
  /// paid for), shared_filter_frames per-frame filter scores, and
  /// shared_models trained weight blobs (0 or 1 per query: each executor
  /// trains at most one specialized NN per run).
  const obs::CacheStats& stats() const { return stats_; }

 private:
  /// The ranged read of one value type through both tiers, counted.
  template <typename T>
  std::vector<size_t> ReadThrough(uint64_t ns,
                                  std::span<const int64_t> frames,
                                  size_t width, std::span<T> out);
  /// The shared tier first, the rest from the persistent tier, promoting
  /// what it returns. `shared_hits` counts the rows the shared tier
  /// served.
  template <typename T>
  std::vector<size_t> ReadShared(uint64_t ns, std::span<const int64_t> frames,
                                 size_t width, std::span<T> out,
                                 int64_t* shared_hits);

  SharedSweepCache* shared_;
  ArtifactCache* underlying_;
  obs::CacheStats stats_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SHARED_SWEEP_H_
