#include "core/shared_sweep.h"

#include <algorithm>

#include "obs/metrics.h"

namespace blazeit {

namespace {

/// Registered kUnstable: which query of a concurrent batch group hits the
/// shared tier (vs. computing and promoting) depends on scheduling — the
/// values are scheduling-dependent even though query outputs are not (the
/// shared value is bit-identical to recomputation by contract).
obs::Counter* SharedHits() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.hits{tier=shared}", obs::Stability::kUnstable);
  return c;
}

obs::Counter* SharedPromotions() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.promotions{tier=shared}", obs::Stability::kUnstable);
  return c;
}

/// The persistent tier's ranged read of one value type; every frame
/// misses without one.
template <typename T>
std::vector<size_t> ReadUnderlying(ArtifactCache* cache, uint64_t ns,
                                   std::span<const int64_t> frames,
                                   size_t width, std::span<T> out) {
  if (cache == nullptr) return ArtifactCache::AllMissed(frames.size());
  if constexpr (std::is_same_v<T, float>) {
    return cache->GetFrameFloatRows(ns, frames, width, out);
  } else {
    return cache->GetFrameDoubleRows(ns, frames, width, out);
  }
}

}  // namespace

template <typename T>
std::vector<size_t> SharedSweepCache::GetRows(uint64_t ns,
                                              std::span<const int64_t> frames,
                                              size_t width, std::span<T> out) {
  std::vector<size_t> miss;
  util::MutexLock lock(mu_);
  const RowMap<T>& rows = Rows<T>();
  for (size_t i = 0; i < frames.size(); ++i) {
    auto it = rows.find({ns, frames[i]});
    if (it == rows.end() || it->second.size() != width) {
      miss.push_back(i);
      continue;
    }
    std::copy(it->second.begin(), it->second.end(),
              out.begin() + static_cast<std::ptrdiff_t>(i * width));
  }
  return miss;
}

template <typename T>
void SharedSweepCache::PutRows(uint64_t ns, std::span<const int64_t> frames,
                               size_t width, std::span<const T> rows,
                               const std::vector<size_t>& indices) {
  util::MutexLock lock(mu_);
  RowMap<T>& map = Rows<T>();
  for (size_t i : indices) {
    const T* row = rows.data() + i * width;
    map.emplace(Key{ns, frames[i]}, std::vector<T>(row, row + width));
  }
}

template <typename T>
void SharedSweepCache::PutRow(uint64_t ns, int64_t frame,
                              const std::vector<T>& row) {
  util::MutexLock lock(mu_);
  Rows<T>().emplace(Key{ns, frame}, row);  // first write wins
}

bool SharedSweepCache::GetBlob(uint64_t ns, std::vector<float>* out) const {
  util::MutexLock lock(mu_);
  auto it = blobs_.find(ns);
  if (it == blobs_.end()) return false;
  *out = it->second;
  return true;
}

void SharedSweepCache::PutBlob(uint64_t ns, const std::vector<float>& v) {
  util::MutexLock lock(mu_);
  blobs_.emplace(ns, v);
}

template <typename T>
std::vector<size_t> SweepCacheView::ReadThrough(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<T> out) {
  constexpr bool kFloat = std::is_same_v<T, float>;
  int64_t& hits = kFloat ? stats_.frame_float_hits : stats_.frame_double_hits;
  int64_t& misses =
      kFloat ? stats_.frame_float_misses : stats_.frame_double_misses;
  int64_t& shared_hits =
      kFloat ? stats_.shared_nn_frames : stats_.shared_filter_frames;
  std::vector<size_t> miss =
      shared_ == nullptr
          ? ReadUnderlying(underlying_, ns, frames, width, out)
          : ReadShared(ns, frames, width, out, &shared_hits);
  hits += static_cast<int64_t>(frames.size() - miss.size());
  misses += static_cast<int64_t>(miss.size());
  return miss;
}

template <typename T>
std::vector<size_t> SweepCacheView::ReadShared(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<T> out, int64_t* shared_hits) {
  std::vector<size_t> miss = shared_->GetRows<T>(ns, frames, width, out);
  const int64_t served = static_cast<int64_t>(frames.size() - miss.size());
  *shared_hits += served;
  SharedHits()->Add(served);
  if (miss.empty() || underlying_ == nullptr) return miss;

  std::vector<int64_t> rest(miss.size());
  for (size_t j = 0; j < miss.size(); ++j) rest[j] = frames[miss[j]];
  std::vector<T> rows(rest.size() * width);
  const std::vector<size_t> rest_miss =
      ReadUnderlying<T>(underlying_, ns, rest, width, rows);

  // Copy the persistent hits out and promote them, so later queries of
  // the batch hit the memory tier (the persistent value is bit-identical
  // to recomputation by contract); what the persistent tier missed too
  // stays missed.
  std::vector<size_t> promoted;
  std::vector<size_t> still_missed;
  size_t next_miss = 0;
  for (size_t j = 0; j < rest.size(); ++j) {
    if (next_miss < rest_miss.size() && rest_miss[next_miss] == j) {
      still_missed.push_back(miss[j]);
      ++next_miss;
      continue;
    }
    std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(j * width), width,
                out.begin() + static_cast<std::ptrdiff_t>(miss[j] * width));
    promoted.push_back(miss[j]);
  }
  shared_->PutRows<T>(ns, frames, width, out, promoted);
  SharedPromotions()->Add(static_cast<int64_t>(promoted.size()));
  return still_missed;
}

std::vector<size_t> SweepCacheView::GetFrameFloatRows(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<float> out) {
  return ReadThrough(ns, frames, width, out);
}

void SweepCacheView::PutFrameFloats(uint64_t ns, int64_t frame,
                                    const std::vector<float>& values) {
  if (shared_ != nullptr) shared_->PutRow(ns, frame, values);
  if (underlying_ != nullptr) underlying_->PutFrameFloats(ns, frame, values);
}

std::vector<size_t> SweepCacheView::GetFrameDoubleRows(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<double> out) {
  return ReadThrough(ns, frames, width, out);
}

void SweepCacheView::PutFrameDoubles(uint64_t ns, int64_t frame,
                                     const std::vector<double>& values) {
  if (shared_ != nullptr) shared_->PutRow(ns, frame, values);
  if (underlying_ != nullptr) underlying_->PutFrameDoubles(ns, frame, values);
}

bool SweepCacheView::GetBlob(uint64_t ns, std::vector<float>* out) {
  bool hit = false;
  if (shared_ != nullptr && shared_->GetBlob(ns, out)) {
    ++stats_.shared_models;
    SharedHits()->Add();
    hit = true;
  } else if (underlying_ != nullptr && underlying_->GetBlob(ns, out)) {
    if (shared_ != nullptr) {
      shared_->PutBlob(ns, *out);
      SharedPromotions()->Add();
    }
    hit = true;
  }
  ++(hit ? stats_.blob_hits : stats_.blob_misses);
  return hit;
}

void SweepCacheView::PutBlob(uint64_t ns, const std::vector<float>& values) {
  if (shared_ != nullptr) shared_->PutBlob(ns, values);
  if (underlying_ != nullptr) underlying_->PutBlob(ns, values);
}

}  // namespace blazeit
