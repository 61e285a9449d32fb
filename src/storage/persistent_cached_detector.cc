#include "storage/persistent_cached_detector.h"

#include "util/artifact_cache.h"
#include "util/logging.h"

namespace blazeit {

uint64_t PersistentCachedDetector::StreamNamespace(
    const SyntheticVideo& video) const {
  // Salt in the code epoch: the fingerprints identify the *inputs*, the
  // epoch identifies the implementation that turned them into detections.
  return HashCombine(
      HashCombine(video.fingerprint(), inner_->ParamsFingerprint()),
      kDerivedArtifactEpoch);
}

std::vector<Detection> PersistentCachedDetector::Detect(
    const SyntheticVideo& video, int64_t frame) const {
  DetectionCacheKey key{video.fingerprint(), frame};
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Compute outside the map lock: the inner detector is deterministic, so
  // two racing computations of one frame produce identical vectors and
  // whichever insert lands first wins harmlessly.
  std::vector<Detection> dets = store_ != nullptr
                                    ? ReadThroughStore(video, frame)
                                    : inner_->Detect(video, frame);
  util::MutexLock lock(mu_);
  return cache_.emplace(key, std::move(dets)).first->second;
}

std::vector<Detection> PersistentCachedDetector::ReadThroughStore(
    const SyntheticVideo& video, int64_t frame) const {
  // The store carries its own locking; a racing double-compute writes
  // identical content and PutDetections' first-write-wins absorbs the
  // duplicate.
  const uint64_t ns = StreamNamespace(video);
  auto stored = store_->GetDetections(ns, frame);
  if (stored.ok()) {
    store_hits_.fetch_add(1, std::memory_order_relaxed);
    return std::move(stored).value();
  }
  // A record that exists but fails to decode means on-disk corruption that
  // slipped past Open (e.g. a CRC-valid but semantically malformed record
  // from a writer bug or key collision). Recompute, then *repair* the
  // record in place — a plain Put would lose to first-write-wins and the
  // corruption would warn on every future run.
  const bool repair = stored.status().code() != StatusCode::kNotFound;
  if (repair) {
    BLAZEIT_LOG(kWarning) << "detection store read failed, recomputing and "
                             "repairing in place: "
                          << stored.status().ToString();
  }
  store_misses_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Detection> dets = inner_->Detect(video, frame);
  Status put = repair
                   ? store_->Repair(ns, frame, EncodeDetectionsPayload(dets))
                   : store_->PutDetections(ns, frame, dets);
  if (!put.ok()) {
    BLAZEIT_LOG(kWarning) << "detection store write failed: "
                          << put.ToString();
  }
  return dets;
}

}  // namespace blazeit
