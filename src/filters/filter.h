#ifndef BLAZEIT_FILTERS_FILTER_H_
#define BLAZEIT_FILTERS_FILTER_H_

#include <string>
#include <vector>

#include "util/artifact_cache.h"
#include "util/random.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// A per-frame scoring filter used to discard frames before object
/// detection (Section 8). Filters expose a continuous score; the threshold
/// is calibrated on the held-out day so that no positive frame scores
/// below it (the no-false-negatives regime the paper evaluates).
class FrameFilter {
 public:
  virtual ~FrameFilter() = default;

  virtual std::string name() const = 0;

  /// Relevance score for the frame; higher means more likely to satisfy
  /// the query predicate.
  virtual double Score(const SyntheticVideo& video, int64_t frame) const = 0;

  /// Scores many frames; the default loops Score (reading/writing the
  /// score cache when one is set), NN-backed filters override with batched
  /// inference.
  virtual std::vector<double> ScoreBatch(
      const SyntheticVideo& video, const std::vector<int64_t>& frames) const {
    std::vector<double> out(frames.size());
    const uint64_t ns = HashCombine(cache_identity_, video.fingerprint());
    const std::vector<size_t> miss =
        score_cache_ != nullptr
            ? score_cache_->GetFrameDoubleRows(ns, frames, 1, out)
            : ArtifactCache::AllMissed(frames.size());
    for (size_t i : miss) {
      out[i] = Score(video, frames[i]);
      if (score_cache_ != nullptr) {
        score_cache_->PutFrameDoubles(ns, frames[i], {out[i]});
      }
    }
    return out;
  }

  /// Enables persistent score caching for filters whose Score renders
  /// frames (content filtering). `identity` must fingerprint everything
  /// that determines Score besides (video, frame) — scores are doubles and
  /// are cached bit-exactly, so calibrated thresholds behave identically
  /// warm or cold. NN-backed filters ignore this (their outputs are cached
  /// at the NN layer).
  void set_score_cache(ArtifactCache* cache, uint64_t identity) {
    score_cache_ = cache;
    cache_identity_ = identity;
  }

  /// True for specialized-NN-backed filters (charged at the NN rate in the
  /// cost model) as opposed to simple filters (filter rate).
  virtual bool IsNeuralNetwork() const { return false; }

  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

  /// Frames scoring at or above the calibrated threshold survive.
  bool Pass(const SyntheticVideo& video, int64_t frame) const {
    return Score(video, frame) >= threshold_;
  }

 protected:
  /// Cache wiring for subclasses overriding ScoreBatch (content filtering
  /// reads misses before and writes scores after its parallel sweep).
  ArtifactCache* score_cache() const { return score_cache_; }
  uint64_t cache_identity() const { return cache_identity_; }

 private:
  double threshold_ = 0.0;
  ArtifactCache* score_cache_ = nullptr;
  uint64_t cache_identity_ = 0;
};

}  // namespace blazeit

#endif  // BLAZEIT_FILTERS_FILTER_H_
