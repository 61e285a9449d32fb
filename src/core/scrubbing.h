#ifndef BLAZEIT_CORE_SCRUBBING_H_
#define BLAZEIT_CORE_SCRUBBING_H_

#include <vector>

#include "core/catalog.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "obs/report.h"
#include "sim/cost_model.h"
#include "storage/segment_sketch.h"
#include "util/status.h"

namespace blazeit {

struct ScrubOptions {
  SpecializedNNConfig nn;
  /// Half-width (frames) of the moving average applied to the per-frame
  /// confidences before ranking. Useful when the NN's per-frame error is
  /// noise-dominated; with the pooled-feature NNs the ablation bench shows
  /// raw confidences rank better, so smoothing is off by default.
  int64_t confidence_smoothing = 0;
  /// Combine multi-class tail probabilities as a product (joint event)
  /// instead of the paper's sum. Off by default: the sum matches the paper
  /// and measures better in bench_ablation_scrubbing.
  bool conjunctive_product = false;
  uint64_t seed = 1;
};

struct ScrubResult {
  /// Frames satisfying the predicate, in discovery (confidence) order —
  /// the paper notes results are not returned in temporal order.
  std::vector<int64_t> frames;
  /// Full simulated cost including NN training and inference.
  CostMeter cost;
  /// Detection-only seconds: the cost if the specialized NN's scores were
  /// pre-indexed ("BlazeIt (indexed)" in Figure 6).
  double indexed_seconds = 0.0;
  /// Sample complexity: object-detection calls consumed.
  int64_t detection_calls = 0;
  /// True when LIMIT frames were found. Distinct from scan_exhausted: a
  /// query with fewer matches than LIMIT ends with limit_satisfied ==
  /// false and scan_exhausted == true (the two used to be conflated in a
  /// single `found_all` flag).
  bool limit_satisfied = false;
  /// True when every candidate frame of the window was examined — the
  /// honest "there is nothing more to find" signal.
  bool scan_exhausted = false;
  /// True when the training day had no instances of the query and the
  /// executor fell back to a sequential scan (Section 7.1).
  bool fell_back_to_scan = false;
  /// Sketch-index activity, for the query's ExecutionReport.
  obs::SketchStats sketch;
};

/// Executes cardinality-limited scrubbing queries (Section 7): trains one
/// specialized NN with a count head per queried class, scores every unseen
/// frame by the summed probability of meeting the per-class minimum
/// counts, and runs the full detector down the confidence ranking until
/// LIMIT verified frames (GAP apart) are found. Only true positives are
/// ever returned because every candidate is verified by the detector.
class ScrubbingExecutor {
 public:
  /// `stream` must outlive the executor. `sweep_cache` overrides the
  /// stream's artifact cache (the engine hands each query's
  /// SweepCacheView in here, so batched queries share NN sweeps and every
  /// query's cache traffic is counted); nullptr keeps the stream's
  /// persistent cache. `trace` (nullable) receives train/sweep/verify
  /// stage spans. `use_store_index` consults the detection store's
  /// per-segment sketches (storage/segment_sketch.h) to skip provably
  /// non-matching segments: the NN scores only sketch-candidate frames
  /// (with smoothing off) and both the verification walk and the scan
  /// skip refuted segments. Returned frames are bit-identical to the
  /// unindexed run — only the charged NN/detector calls drop. A no-op
  /// unless the stream is store-backed and sketches are built and current.
  ScrubbingExecutor(StreamData* stream, ScrubOptions options = {},
                    ArtifactCache* sweep_cache = nullptr,
                    obs::QueryTrace* trace = nullptr,
                    bool use_store_index = false);

  /// Finds LIMIT matching frames among the test-day frames in `window`
  /// (default: the whole day).
  Result<ScrubResult> Run(const std::vector<ClassCountRequirement>& reqs,
                          int64_t limit, int64_t gap,
                          FrameWindow window = FrameWindow{});

  /// The sequential-scan plan over the same candidates Run would walk,
  /// without training or ranking: what Run falls back to when the training
  /// day has no instances, and the load-shed plan for scrubbing.
  Result<ScrubResult> RunScan(const std::vector<ClassCountRequirement>& reqs,
                              int64_t limit, int64_t gap,
                              FrameWindow window = FrameWindow{});

  /// Confidence scores over the last Run's scored frames in ascending
  /// frame order — the whole window, or only the sketch-candidate frames
  /// when index pruning restricted the sweep (empty if the executor fell
  /// back to a scan); used by benchmarks.
  const std::vector<float>& confidences() const { return confidences_; }

 private:
  /// Run's and RunScan's shared body; `scan_only` skips the NN plan.
  Result<ScrubResult> Execute(const std::vector<ClassCountRequirement>& reqs,
                              int64_t limit, int64_t gap, FrameWindow window,
                              bool scan_only);

  StreamData* stream_;
  ArtifactCache* cache_;
  ScrubOptions options_;
  obs::QueryTrace* trace_;
  bool use_store_index_;
  std::vector<float> confidences_;
};

/// The LIMIT/GAP sequential scan (Section 7.1's fallback and the paper's
/// Naive scrubbing baseline): walks `ranges` (ascending, disjoint test-day
/// frame ranges) in frame order, charges `meter` one detector call per
/// GAP-admissible frame, and accepts frames satisfying `reqs` until LIMIT
/// are found. `presence_oracle` skips, for free, frames missing any
/// required class (Section 10.1.1's NoScope oracle). The result's cost is
/// `*meter` at the end of the scan.
ScrubResult SequentialScan(const StreamData& stream,
                           const std::vector<ClassCountRequirement>& reqs,
                           int64_t limit, int64_t gap,
                           const std::vector<SketchIndex::FrameRange>& ranges,
                           CostMeter* meter, bool presence_oracle = false);

/// Candidate subranges of `window` under the stream's sketch index for
/// `probe`, or the whole window (nothing when it is empty) when
/// `use_store_index` is off, the stream has no store, or no current index
/// exists. `sketch` (nullable) receives the consultation outcome for the
/// query's ExecutionReport. The one front end of every sketch-pruned walk:
/// scrubbing (both plans), full scan and count-distinct.
std::vector<SketchIndex::FrameRange> SketchCandidateRanges(
    const StreamData& stream, FrameWindow window, const SketchProbe& probe,
    bool use_store_index, obs::SketchStats* sketch);

/// True if the frame's per-class counts satisfy every requirement.
bool SatisfiesRequirements(const StreamData& stream, int64_t frame,
                           const std::vector<ClassCountRequirement>& reqs);

/// Training-day frames satisfying every requirement. Zero means no NN can
/// be trained for the query, so both the optimizer (ChoosePlan) and Run
/// pick the sequential scan (Section 7.1) on this one count.
int64_t JointTrainingInstances(const StreamData& stream,
                               const std::vector<ClassCountRequirement>& reqs);

/// Number of test-day frames satisfying the requirements, and the number
/// of distinct events (maximal runs of consecutive satisfying frames) —
/// the "Instances" column of Table 6.
struct RequirementStats {
  int64_t matching_frames = 0;
  int64_t events = 0;
};
RequirementStats CountRequirementInstances(
    const StreamData& stream, const std::vector<ClassCountRequirement>& reqs);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SCRUBBING_H_
