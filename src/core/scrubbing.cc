#include "core/scrubbing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace blazeit {

std::vector<SketchIndex::FrameRange> SketchCandidateRanges(
    const StreamData& stream, FrameWindow window, const SketchProbe& probe,
    bool use_store_index, obs::SketchStats* sketch) {
  const bool consulted = use_store_index && stream.detection_store != nullptr;
  std::vector<SketchIndex::FrameRange> ranges;
  bool pruned = false;
  if (consulted) {
    SketchIndex index = SketchIndex::Load(stream.detection_store,
                                          stream.test_detections_ns);
    if (index.valid()) {
      ranges = index.CandidateRanges(window.begin, window.end, probe);
      pruned = true;
    }
  }
  if (!pruned && window.end > window.begin) {
    ranges.push_back({window.begin, window.end});
  }
  if (sketch != nullptr) {
    sketch->consulted = consulted;
    sketch->pruned = pruned;
    sketch->window_frames =
        window.end > window.begin ? window.end - window.begin : 0;
    sketch->candidate_frames = 0;
    for (const auto& range : ranges) {
      sketch->candidate_frames += range.end - range.begin;
    }
  }
  return ranges;
}

bool SatisfiesRequirements(const StreamData& stream, int64_t frame,
                           const std::vector<ClassCountRequirement>& reqs) {
  for (const ClassCountRequirement& req : reqs) {
    const std::vector<int>& counts = stream.test_labels->Counts(req.class_id);
    if (counts[static_cast<size_t>(frame)] < req.min_count) return false;
  }
  return true;
}

int64_t JointTrainingInstances(
    const StreamData& stream,
    const std::vector<ClassCountRequirement>& reqs) {
  std::vector<const std::vector<int>*> counts;
  for (const ClassCountRequirement& req : reqs) {
    counts.push_back(&stream.train_labels->Counts(req.class_id));
  }
  int64_t instances = 0;
  for (int64_t t = 0; t < stream.train_day->num_frames(); ++t) {
    size_t r = 0;
    while (r < reqs.size() &&
           (*counts[r])[static_cast<size_t>(t)] >= reqs[r].min_count) {
      ++r;
    }
    if (r == reqs.size()) ++instances;
  }
  return instances;
}

RequirementStats CountRequirementInstances(
    const StreamData& stream,
    const std::vector<ClassCountRequirement>& reqs) {
  // Hoist the per-class count vectors (forcing the thread-safe lazy build
  // once, serially) so the sharded scan below is pure reads.
  std::vector<const std::vector<int>*> counts;
  counts.reserve(reqs.size());
  for (const ClassCountRequirement& req : reqs) {
    counts.push_back(&stream.test_labels->Counts(req.class_id));
  }
  const int64_t n = stream.test_day->num_frames();

  // Sharded scan with a fixed-order merge: each shard runs the serial
  // event-counting recurrence locally (in_event reset at its boundary)
  // and reports whether its first/last frames match; the merge then
  // uncounts events that span a shard boundary. Pure integer bookkeeping
  // over fixed shard boundaries — identical to the serial scan at any
  // thread count.
  struct ShardStats {
    int64_t matching = 0;
    int64_t events = 0;
    bool first_matches = false;
    bool last_matches = false;
  };
  std::vector<ShardStats> shards = exec::ParallelMap<ShardStats>(
      n, exec::kDefaultShardSize,
      [&](int64_t begin, int64_t end, int /*slot*/) {
        ShardStats s;
        bool in_event = false;
        for (int64_t t = begin; t < end; ++t) {
          bool match = true;
          for (size_t r = 0; r < counts.size(); ++r) {
            if ((*counts[r])[static_cast<size_t>(t)] < reqs[r].min_count) {
              match = false;
              break;
            }
          }
          if (match) {
            ++s.matching;
            if (!in_event) ++s.events;
            if (t == begin) s.first_matches = true;
          }
          in_event = match;
        }
        s.last_matches = in_event;
        return s;
      });

  RequirementStats out;
  bool prev_last = false;
  for (const ShardStats& s : shards) {
    out.matching_frames += s.matching;
    out.events += s.events;
    // An event running across the boundary was opened in both shards.
    if (prev_last && s.first_matches) --out.events;
    prev_last = s.last_matches;
  }
  return out;
}

namespace {

/// GAP bookkeeping: accepted frames kept sorted; a candidate is admissible
/// if no accepted frame lies within `gap` of it.
bool GapAdmissible(const std::vector<int64_t>& accepted_sorted, int64_t frame,
                   int64_t gap) {
  if (gap <= 0) return true;
  auto it = std::lower_bound(accepted_sorted.begin(), accepted_sorted.end(),
                             frame);
  if (it != accepted_sorted.end() && *it - frame < gap) return false;
  if (it != accepted_sorted.begin() && frame - *(it - 1) < gap) return false;
  return true;
}

void InsertSorted(std::vector<int64_t>* accepted, int64_t frame) {
  accepted->insert(
      std::upper_bound(accepted->begin(), accepted->end(), frame), frame);
}

/// Membership test over ascending, disjoint ranges.
bool InRanges(const std::vector<SketchIndex::FrameRange>& ranges,
              int64_t frame) {
  auto it = std::upper_bound(ranges.begin(), ranges.end(), frame,
                             [](int64_t f, const SketchIndex::FrameRange& r) {
                               return f < r.begin;
                             });
  if (it == ranges.begin()) return false;
  --it;
  return frame >= it->begin && frame < it->end;
}

}  // namespace

ScrubbingExecutor::ScrubbingExecutor(StreamData* stream, ScrubOptions options,
                                     ArtifactCache* sweep_cache,
                                     obs::QueryTrace* trace,
                                     bool use_store_index)
    : stream_(stream),
      cache_(sweep_cache != nullptr ? sweep_cache : stream->artifact_cache),
      options_(options),
      trace_(trace),
      use_store_index_(use_store_index) {}

Result<ScrubResult> ScrubbingExecutor::Run(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, FrameWindow window) {
  return Execute(reqs, limit, gap, window, /*scan_only=*/false);
}

Result<ScrubResult> ScrubbingExecutor::RunScan(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, FrameWindow window) {
  return Execute(reqs, limit, gap, window, /*scan_only=*/true);
}

Result<ScrubResult> ScrubbingExecutor::Execute(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, FrameWindow window, bool scan_only) {
  if (reqs.empty())
    return Status::InvalidArgument("scrubbing needs at least one class");
  if (limit <= 0) return Status::InvalidArgument("limit must be positive");
  window = ClampFrameWindow(window, stream_->test_day->num_frames());
  confidences_.clear();
  if (window.end <= window.begin) {
    // Range entirely past the recorded day: zero frames match; return
    // empty (and free) rather than training an NN to discover that.
    ScrubResult empty;
    empty.scan_exhausted = true;
    return empty;
  }
  CostMeter meter;

  // --- sketch consultation (opt-in): candidate subranges of the window ---
  SketchProbe probe;
  probe.score_threshold = stream_->config.detection_threshold;
  probe.requirements = reqs;
  obs::SketchStats sketch;
  const std::vector<SketchIndex::FrameRange> candidates =
      SketchCandidateRanges(*stream_, window, probe, use_store_index_,
                            &sketch);
  if (candidates.empty()) {
    // Every segment of the window is provably free of matches.
    ScrubResult empty;
    empty.scan_exhausted = true;
    empty.sketch = sketch;
    return empty;
  }
  const int64_t n_window = window.end - window.begin;

  // --- training-data check (Section 7.1): any instance in the train day?
  const bool fell_back =
      !scan_only && JointTrainingInstances(*stream_, reqs) == 0;
  if (scan_only || fell_back) {
    if (fell_back) {
      BLAZEIT_LOG(kDebug) << "no instances of the scrubbing query in the "
                             "training set; falling back to sequential scan";
    }
    obs::TraceSpan span(trace_, "scan", &meter);
    ScrubResult result =
        SequentialScan(*stream_, reqs, limit, gap, candidates, &meter);
    result.fell_back_to_scan = fell_back;
    result.sketch = sketch;
    return result;
  }

  // --- train one NN with a count head per class ---
  std::vector<std::vector<int>> head_labels;
  std::vector<int> min_counts;
  head_labels.reserve(reqs.size());
  for (const ClassCountRequirement& req : reqs) {
    head_labels.push_back(stream_->train_labels->Counts(req.class_id));
    min_counts.push_back(req.min_count);
  }
  SpecializedNNConfig nn_config = options_.nn;
  nn_config.train.seed = HashCombine(options_.seed, 0x5c4b);
  nn_config.cache = cache_;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace_, "train", &meter);
    return SpecializedNN::Train(*stream_->train_day, head_labels, nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  SpecializedNN nn = std::move(trained).value();
  meter.ChargeTraining(nn.trained_frames());

  // --- score the unseen frames and rank by confidence ---
  // Indices below are positions in test_frames, so confidences_ lines up
  // with test_frames. The sweep covers only the sketch candidates when
  // pruning applies and smoothing is off; smoothing mixes neighbor
  // scores, so restricting its sweep would change the ranking signal and
  // break bit-identity — with smoothing on, everything is scored and the
  // refuted segments are skipped in the verification walk instead.
  const SyntheticVideo& test = *stream_->test_day;
  const bool restricted_sweep =
      sketch.pruned && options_.confidence_smoothing <= 0;
  std::vector<int64_t> test_frames;
  if (restricted_sweep) {
    test_frames.reserve(static_cast<size_t>(sketch.candidate_frames));
    for (const auto& range : candidates) {
      for (int64_t t = range.begin; t < range.end; ++t) {
        test_frames.push_back(t);
      }
    }
  } else {
    test_frames.resize(static_cast<size_t>(n_window));
    std::iota(test_frames.begin(), test_frames.end(), window.begin);
  }
  auto mode = options_.conjunctive_product && reqs.size() > 1
                  ? SpecializedNN::ConjunctionMode::kProduct
                  : SpecializedNN::ConjunctionMode::kSum;
  {
    obs::TraceSpan span(trace_, "sweep", &meter);
    confidences_ =
        nn.QueryConfidencesForFrames(test, test_frames, min_counts, mode);
    meter.ChargeSpecializedNN(static_cast<int64_t>(test_frames.size()));
  }

  // Rank by the (optionally smoothed) confidence signal.
  std::vector<float> ranking_signal = confidences_;
  if (options_.confidence_smoothing > 0) {
    const int64_t w = options_.confidence_smoothing;
    const int64_t n = n_window;
    std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
    for (int64_t t = 0; t < n; ++t) {
      prefix[static_cast<size_t>(t) + 1] =
          prefix[static_cast<size_t>(t)] +
          static_cast<double>(confidences_[static_cast<size_t>(t)]);
    }
    for (int64_t t = 0; t < n; ++t) {
      int64_t lo = std::max<int64_t>(0, t - w);
      int64_t hi = std::min<int64_t>(n - 1, t + w);
      ranking_signal[static_cast<size_t>(t)] = static_cast<float>(
          (prefix[static_cast<size_t>(hi) + 1] -
           prefix[static_cast<size_t>(lo)]) /
          static_cast<double>(hi - lo + 1));
    }
  }
  std::vector<int64_t> order(test_frames.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&ranking_signal](int64_t a, int64_t b) {
                     return ranking_signal[static_cast<size_t>(a)] >
                            ranking_signal[static_cast<size_t>(b)];
                   });

  // --- verify candidates with the full detector, best-first ---
  obs::TraceSpan verify_span(trace_, "verify", &meter);
  ScrubResult result;
  std::vector<int64_t> accepted_sorted;
  bool limit_reached = false;
  for (int64_t index : order) {
    const int64_t frame = test_frames[static_cast<size_t>(index)];
    if (static_cast<int64_t>(result.frames.size()) >= limit) {
      limit_reached = true;
      break;
    }
    // With smoothing on, everything was scored but refuted segments still
    // need no verification: a sketch-refuted frame provably fails the
    // requirements, so in the unindexed walk it would charge a detector
    // call and change no state — skipping it is free and bit-identical.
    if (sketch.pruned && !restricted_sweep && !InRanges(candidates, frame)) {
      continue;
    }
    if (!GapAdmissible(accepted_sorted, frame, gap)) continue;
    meter.ChargeDetection();
    if (SatisfiesRequirements(*stream_, frame, reqs)) {
      result.frames.push_back(frame);
      InsertSorted(&accepted_sorted, frame);
    }
  }
  result.limit_satisfied =
      static_cast<int64_t>(result.frames.size()) >= limit;
  result.scan_exhausted = !limit_reached;
  result.indexed_seconds = meter.detection_seconds();
  result.detection_calls = meter.detection_calls();
  result.cost = meter;
  result.sketch = sketch;
  return result;
}

ScrubResult SequentialScan(const StreamData& stream,
                           const std::vector<ClassCountRequirement>& reqs,
                           int64_t limit, int64_t gap,
                           const std::vector<SketchIndex::FrameRange>& ranges,
                           CostMeter* meter, bool presence_oracle) {
  // The oracle's free check: at least one instance of every class.
  std::vector<ClassCountRequirement> presence;
  if (presence_oracle) {
    for (const ClassCountRequirement& req : reqs) {
      presence.push_back({req.class_id, 1});
    }
  }
  ScrubResult result;
  // Frames are visited in ascending order, so the GAP test needs only the
  // latest accepted frame.
  int64_t last_accepted = -1;
  bool limit_reached = false;
  for (const auto& range : ranges) {
    for (int64_t t = range.begin; t < range.end; ++t) {
      if (static_cast<int64_t>(result.frames.size()) >= limit) {
        limit_reached = true;
        break;
      }
      if (last_accepted >= 0 && t - last_accepted < gap) continue;
      if (presence_oracle && !SatisfiesRequirements(stream, t, presence)) {
        continue;
      }
      meter->ChargeDetection();
      if (SatisfiesRequirements(stream, t, reqs)) {
        result.frames.push_back(t);
        last_accepted = t;
      }
    }
    if (limit_reached) break;
  }
  result.limit_satisfied =
      static_cast<int64_t>(result.frames.size()) >= limit;
  result.scan_exhausted = !limit_reached;
  result.indexed_seconds = meter->detection_seconds();
  result.detection_calls = meter->detection_calls();
  result.cost = *meter;
  return result;
}

}  // namespace blazeit
