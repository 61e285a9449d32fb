#include "storage/store_artifact_cache.h"

#include <cstring>
#include <string_view>

#include "obs/metrics.h"
#include "storage/record_format.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

/// Callers' namespaces fingerprint the *inputs*; salt in the code epoch so
/// artifacts computed by older implementations are never replayed.
uint64_t Salted(uint64_t ns) {
  return HashCombine(ns, kDerivedArtifactEpoch);
}

obs::Counter* TierHits() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.hits{tier=persistent}", obs::Stability::kStable);
  return c;
}

obs::Counter* TierMisses() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.misses{tier=persistent}", obs::Stability::kStable);
  return c;
}

}  // namespace

void StoreArtifactCache::MarkCorrupt(uint64_t salted_ns, int64_t frame) {
  util::MutexLock lock(corrupt_mu_);
  corrupt_.emplace(salted_ns, frame);
}

bool StoreArtifactCache::ConsumeCorrupt(uint64_t salted_ns, int64_t frame) {
  util::MutexLock lock(corrupt_mu_);
  return corrupt_.erase({salted_ns, frame}) > 0;
}

template <typename T>
std::vector<size_t> StoreArtifactCache::GetRows(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<T> out) {
  const uint64_t salted = Salted(ns);
  const size_t row_bytes = width * sizeof(T);
  std::vector<bool> hit(frames.size(), false);
  std::vector<std::pair<size_t, Status>> bad;
  store_->GetRawRange(
      salted, frames,
      [&](size_t i, const Status& status, std::string_view payload) {
        if (status.ok() && payload.size() == row_bytes) {
          std::memcpy(out.data() + i * width, payload.data(), row_bytes);
          hit[i] = true;
        } else if (status.ok()) {
          bad.emplace_back(
              i, Status::ParseError(StrFormat(
                     "payload of %zu bytes, expected a row of %zu",
                     payload.size(), row_bytes)));
        } else if (status.code() != StatusCode::kNotFound) {
          bad.emplace_back(i, status);
        }
      });
  // Outside the store's lock: a corrupt record behind a valid index is
  // remembered so the caller's recompute-and-Put repairs it in place
  // instead of silently losing to first-write-wins (and re-warning every
  // run). One warning per ranged read, however many records of a torn
  // sweep went bad.
  if (!bad.empty()) {
    BLAZEIT_LOG(kWarning) << "artifact cache read failed for " << bad.size()
                          << " of " << frames.size()
                          << " records, recomputing and repairing in place; "
                             "first: "
                          << bad.front().second.ToString();
  }
  for (const auto& [i, status] : bad) MarkCorrupt(salted, frames[i]);
  std::vector<size_t> miss;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (!hit[i]) miss.push_back(i);
  }
  const int64_t hits = static_cast<int64_t>(frames.size() - miss.size());
  hits_ += hits;
  misses_ += static_cast<int64_t>(miss.size());
  TierHits()->Add(hits);
  TierMisses()->Add(static_cast<int64_t>(miss.size()));
  return miss;
}

std::vector<size_t> StoreArtifactCache::GetFrameFloatRows(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<float> out) {
  return GetRows(ns, frames, width, out);
}

void StoreArtifactCache::RepairOrPut(uint64_t salted_ns, int64_t frame,
                                     std::string payload, const char* kind) {
  Status st;
  if (ConsumeCorrupt(salted_ns, frame)) {
    st = store_->Repair(salted_ns, frame, payload);
    if (st.ok()) {
      ++repairs_;
      static obs::Counter* repairs = obs::MetricsRegistry::Global().GetCounter(
          "cache.repairs{tier=persistent}", obs::Stability::kStable);
      repairs->Add();
      // kDebug: the read that found the record corrupt already warned
      // once for its whole range.
      BLAZEIT_LOG(kDebug) << "artifact cache repaired corrupt record in "
                             "place ("
                          << kind << ", frame " << frame << ")";
    }
  } else {
    st = store_->PutRaw(salted_ns, frame, std::move(payload));
  }
  if (!st.ok()) {
    BLAZEIT_LOG(kWarning) << "artifact cache write failed: " << st.ToString();
  }
}

void StoreArtifactCache::PutFrameFloats(uint64_t ns, int64_t frame,
                                        const std::vector<float>& values) {
  RepairOrPut(Salted(ns), frame, EncodeFloatsPayload(values), "floats");
}

std::vector<size_t> StoreArtifactCache::GetFrameDoubleRows(
    uint64_t ns, std::span<const int64_t> frames, size_t width,
    std::span<double> out) {
  return GetRows(ns, frames, width, out);
}

void StoreArtifactCache::PutFrameDoubles(uint64_t ns, int64_t frame,
                                         const std::vector<double>& values) {
  RepairOrPut(Salted(ns), frame, EncodeDoublesPayload(values), "doubles");
}

bool StoreArtifactCache::GetBlob(uint64_t ns, std::vector<float>* out) {
  const uint64_t salted = Salted(ns);
  auto values = store_->GetFloats(salted, kBlobFrame);
  if (!values.ok()) {
    if (values.status().code() != StatusCode::kNotFound) {
      BLAZEIT_LOG(kWarning) << "artifact cache read failed, recomputing: "
                            << values.status().ToString();
      MarkCorrupt(salted, kBlobFrame);
    }
    ++misses_;
    TierMisses()->Add();
    return false;
  }
  ++hits_;
  TierHits()->Add();
  *out = std::move(values).value();
  return true;
}

void StoreArtifactCache::PutBlob(uint64_t ns,
                                 const std::vector<float>& values) {
  PutFrameFloats(ns, kBlobFrame, values);
}

}  // namespace blazeit
