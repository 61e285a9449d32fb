#ifndef BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_
#define BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "storage/detection_store.h"
#include "util/artifact_cache.h"
#include "util/mutex.h"

namespace blazeit {

/// ArtifactCache backed by a DetectionStore: per-frame NN outputs, filter
/// scores, and trained-weight blobs become float/double-payload records in
/// the same versioned, CRC-checked segment format as detections. Blobs use
/// a sentinel frame id (no real frame is negative).
///
/// Thread-safe for concurrent Get/Put: the store carries its own locks,
/// the hit/miss counters are atomic, and the corrupt-record bookkeeping
/// is mutex-guarded.
///
/// Self-healing: a record that exists but cannot be used (a CRC or read
/// failure, or a payload of the wrong length) is remembered, and the
/// caller's subsequent Put of the recomputed value is routed through
/// DetectionStore::Repair so the bad record is replaced in place instead
/// of warning on every run.
class StoreArtifactCache : public ArtifactCache {
 public:
  /// Not owned; must outlive this object.
  explicit StoreArtifactCache(DetectionStore* store) : store_(store) {}

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

  int64_t hits() const { return hits_.load(); }
  int64_t misses() const { return misses_.load(); }

  /// Records whose stored payload failed to decode and were repaired in
  /// place by a later Put (diagnostics + tests).
  int64_t repairs() const { return repairs_.load(); }

 private:
  static constexpr int64_t kBlobFrame = -1;

  /// The ranged read of one value type: one DetectionStore::GetRawRange
  /// call, each hit's payload copied straight into its row of `out`. A
  /// record that is present but unusable — a read or verification error,
  /// or a payload that is not exactly `width` values — is a miss that is
  /// also marked for repair.
  template <typename T>
  std::vector<size_t> GetRows(uint64_t ns, std::span<const int64_t> frames,
                              size_t width, std::span<T> out);

  /// Marks (salted ns, frame) as corrupt-on-disk / consumes the mark.
  void MarkCorrupt(uint64_t salted_ns, int64_t frame)
      BLAZEIT_EXCLUDES(corrupt_mu_);
  bool ConsumeCorrupt(uint64_t salted_ns, int64_t frame)
      BLAZEIT_EXCLUDES(corrupt_mu_);
  /// Shared write path: repairs the record in place when it was marked
  /// corrupt by an earlier failed read, plain-puts otherwise. `kind` only
  /// labels the log line.
  void RepairOrPut(uint64_t salted_ns, int64_t frame, std::string payload,
                   const char* kind);

  DetectionStore* store_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> repairs_{0};
  util::Mutex corrupt_mu_;
  std::set<std::pair<uint64_t, int64_t>> corrupt_ BLAZEIT_GUARDED_BY(corrupt_mu_);
};

}  // namespace blazeit

#endif  // BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_
