#ifndef BLAZEIT_TESTS_TESTING_MAP_CACHE_H_
#define BLAZEIT_TESTS_TESTING_MAP_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "util/artifact_cache.h"

namespace blazeit {
namespace testutil {

/// Map-backed ArtifactCache: an in-memory stand-in for the persistent
/// store, for suites that exercise hit paths without a store directory.
class MapCache final : public ArtifactCache {
 public:
  std::vector<size_t> GetFrameFloatRows(uint64_t ns,
                                        std::span<const int64_t> frames,
                                        size_t width,
                                        std::span<float> out) override {
    return GetRows(floats_, ns, frames, width, out);
  }
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override {
    floats_[{ns, frame}] = values;
  }
  std::vector<size_t> GetFrameDoubleRows(uint64_t ns,
                                         std::span<const int64_t> frames,
                                         size_t width,
                                         std::span<double> out) override {
    return GetRows(doubles_, ns, frames, width, out);
  }
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override {
    doubles_[{ns, frame}] = values;
  }
  bool GetBlob(uint64_t ns, std::vector<float>* out) override {
    auto it = blobs_.find(ns);
    if (it == blobs_.end()) return false;
    *out = it->second;
    return true;
  }
  void PutBlob(uint64_t ns, const std::vector<float>& values) override {
    blobs_[ns] = values;
  }

  const std::map<uint64_t, std::vector<float>>& blobs() const {
    return blobs_;
  }

 private:
  template <typename T>
  using RowMap = std::map<std::pair<uint64_t, int64_t>, std::vector<T>>;

  template <typename T>
  static std::vector<size_t> GetRows(const RowMap<T>& rows, uint64_t ns,
                                     std::span<const int64_t> frames,
                                     size_t width, std::span<T> out) {
    std::vector<size_t> miss;
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

  RowMap<float> floats_;
  RowMap<double> doubles_;
  std::map<uint64_t, std::vector<float>> blobs_;
};

}  // namespace testutil
}  // namespace blazeit

#endif  // BLAZEIT_TESTS_TESTING_MAP_CACHE_H_
