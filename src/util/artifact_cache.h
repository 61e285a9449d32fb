#ifndef BLAZEIT_UTIL_ARTIFACT_CACHE_H_
#define BLAZEIT_UTIL_ARTIFACT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace blazeit {

/// Version epoch of the *code* that derives cached artifacts. Config
/// fingerprints capture what the inputs were, but not which implementation
/// of the detector noise model, renderer, FrameFeatures, or NN forward
/// math produced the bytes — persistent stores mix this epoch into every
/// namespace, so bumping it invalidates all derived artifacts at once.
/// Bump whenever any of that math changes output bits.
///
/// Epoch history:
///   2 — PR 3: renderer contract fix (lighting factor clamped to >= 0,
///       fill-site color clamp to [0,1]) and the two-pass Resize box
///       filter. The vectorized raster/NN kernels themselves are
///       bit-identical to the scalar paths and did not require a bump.
inline constexpr uint64_t kDerivedArtifactEpoch = 2;

/// Cache interface for expensive derived per-frame artifacts: trained NN
/// weights, per-frame NN softmax outputs, and per-frame filter scores. The
/// interface lives in util/ so nn/ and filters/ stay independent of the
/// storage backend; the DetectionStore-backed implementation is
/// storage/store_artifact_cache.h, and a null cache (the default
/// everywhere) disables persistence entirely.
///
/// Keys are caller-computed fingerprints covering everything the cached
/// value depends on (training day, labels, config, evaluation day, filter
/// identity); a key therefore never needs invalidation — a changed input
/// is a different key. Values are bit-exact: a cache hit must reproduce
/// the identical floats/doubles the computation would have produced, so
/// query outputs and simulated costs are unchanged warm or cold.
class ArtifactCache {
 public:
  virtual ~ArtifactCache() = default;

  /// Ranged read of per-frame float rows under namespace `ns`: for each
  /// i, a stored row of exactly `width` floats for `frames[i]` is copied
  /// into `out[i * width, (i + 1) * width)`. Returns the indices into
  /// `frames` that missed, ascending; their rows of `out` (sized
  /// frames.size() x width by the caller) are left untouched. A stored row
  /// of any other width is a miss. One call per sweep lets a disk-backed
  /// cache resolve the whole range under one lock and read it in runs.
  virtual std::vector<size_t> GetFrameFloatRows(
      uint64_t ns, std::span<const int64_t> frames, size_t width,
      std::span<float> out) = 0;
  virtual void PutFrameFloats(uint64_t ns, int64_t frame,
                              const std::vector<float>& values) = 0;

  /// Ranged read of per-frame double rows, same contract as
  /// GetFrameFloatRows (filter scores are doubles; storing them as floats
  /// would round and could flip threshold comparisons).
  virtual std::vector<size_t> GetFrameDoubleRows(
      uint64_t ns, std::span<const int64_t> frames, size_t width,
      std::span<double> out) = 0;
  virtual void PutFrameDoubles(uint64_t ns, int64_t frame,
                               const std::vector<double>& values) = 0;

  /// One blob per namespace (trained weights). Returns false on miss.
  virtual bool GetBlob(uint64_t ns, std::vector<float>* out) = 0;
  virtual void PutBlob(uint64_t ns, const std::vector<float>& values) = 0;

  /// Every index of an n-frame range: the miss list of a ranged read that
  /// found nothing (or had no cache to ask).
  static std::vector<size_t> AllMissed(size_t n) {
    std::vector<size_t> miss(n);
    std::iota(miss.begin(), miss.end(), size_t{0});
    return miss;
  }
};

}  // namespace blazeit

#endif  // BLAZEIT_UTIL_ARTIFACT_CACHE_H_
