#include "core/optimizer.h"

#include "core/aggregation.h"
#include "core/scrubbing.h"
#include "util/random.h"
#include "util/string_util.h"

namespace blazeit {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSpecializedAggregation:
      return "specialized-aggregation";
    case PlanKind::kAqpAggregation:
      return "aqp-aggregation";
    case PlanKind::kTrackerCountDistinct:
      return "tracker-count-distinct";
    case PlanKind::kImportanceScrubbing:
      return "importance-scrubbing";
    case PlanKind::kScanScrubbing:
      return "scan-scrubbing";
    case PlanKind::kFilteredSelection:
      return "filtered-selection";
    case PlanKind::kBinaryDetection:
      return "binary-detection";
    case PlanKind::kFullScan:
      return "full-scan";
  }
  return "?";
}

namespace {

/// "; sketch-answerable: …" suffix for the plan rationale. Derived from
/// the query's analyzer annotation only (never from whether an index
/// actually exists), so plan descriptions are identical with and without
/// a store.
std::string SketchAnnotation(const AnalyzedQuery& query) {
  const SketchSupport& s = query.sketch;
  if (!s.any()) return "";
  std::string conjuncts;
  if (s.class_counts) conjuncts += " class-counts";
  if (s.class_presence) conjuncts += " class-presence";
  if (s.roi) conjuncts += " roi";
  if (s.min_area) conjuncts += " min-area";
  if (s.any_detection) conjuncts += " any-detection";
  return StrFormat("; sketch-answerable:%s", conjuncts.c_str());
}

}  // namespace

PlanChoice ChoosePlan(const AnalyzedQuery& query, StreamData* stream) {
  PlanChoice choice;
  switch (query.kind) {
    case QueryKind::kAggregate: {
      const int64_t positives =
          PositiveTrainingFrames(*stream, query.agg_class);
      if (positives >= kMinPositiveTrainingFrames) {
        choice.kind = PlanKind::kSpecializedAggregation;
        choice.rationale = StrFormat(
            "aggregate with error tolerance %.3g; %lld positive training "
            "frames -> train specialized NN (Algorithm 1)",
            query.error, static_cast<long long>(positives));
      } else {
        choice.kind = PlanKind::kAqpAggregation;
        choice.rationale = StrFormat(
            "aggregate, but only %lld positive training frames -> plain AQP",
            static_cast<long long>(positives));
      }
      return choice;
    }
    case QueryKind::kCountDistinct:
      choice.kind = PlanKind::kTrackerCountDistinct;
      choice.rationale =
          "COUNT(DISTINCT trackid) requires entity resolution over every "
          "frame -> detector + motion-IOU tracker" +
          SketchAnnotation(query);
      return choice;
    case QueryKind::kScrubbing: {
      const int64_t instances =
          JointTrainingInstances(*stream, query.requirements);
      if (instances > 0) {
        choice.kind = PlanKind::kImportanceScrubbing;
        choice.rationale =
            StrFormat(
                "scrubbing with LIMIT %lld; %lld matching training frames -> "
                "importance sampling on specialized-NN confidence",
                static_cast<long long>(query.limit),
                static_cast<long long>(instances)) +
            SketchAnnotation(query);
      } else {
        choice.kind = PlanKind::kScanScrubbing;
        choice.rationale =
            "scrubbing, but no matching frames in the training set -> "
            "sequential scan with applicable filters" +
            SketchAnnotation(query);
      }
      return choice;
    }
    case QueryKind::kSelection: {
      choice.kind = PlanKind::kFilteredSelection;
      std::string filters;
      if (query.persistence_frames > 2) filters += " temporal";
      if (query.has_roi) filters += " spatial";
      if (!query.udf_predicates.empty()) filters += " content";
      filters += " label";
      choice.rationale = StrFormat(
          "content-based selection; inferred filter classes:%s",
          filters.c_str());
      return choice;
    }
    case QueryKind::kBinarySelect:
      choice.kind = PlanKind::kBinaryDetection;
      choice.rationale = StrFormat(
          "binary detection with FNR<=%.3g FPR<=%.3g (NoScope replication)",
          query.fnr, query.fpr);
      return choice;
    case QueryKind::kExhaustive:
      choice.kind = PlanKind::kFullScan;
      choice.rationale = "no optimization applies; full detection scan" +
                         SketchAnnotation(query);
      return choice;
  }
  return choice;
}

uint64_t SharedSweepGroupKey(const AnalyzedQuery& query, size_t query_index) {
  Fingerprint fp;
  fp.Mix(query.table);
  switch (query.kind) {
    case QueryKind::kAggregate:
      // One counting NN per (stream, class); error/confidence only change
      // how the shared sweep is consumed.
      fp.Mix("aggregate-sweep").Mix(query.agg_class);
      return fp.value();
    case QueryKind::kScrubbing:
      // One multi-head NN per ordered class list (head labels are the
      // per-class counts in requirement order; min counts only shape the
      // tail probabilities read off the shared softmax rows).
      fp.Mix("scrubbing-sweep");
      fp.Mix(static_cast<uint64_t>(query.requirements.size()));
      for (const ClassCountRequirement& req : query.requirements) {
        fp.Mix(req.class_id);
      }
      return fp.value();
    case QueryKind::kSelection:
      // One label-filter NN per (stream, class); predicates differ only
      // in calibration, which reuses the shared held-out sweep.
      fp.Mix("selection-sweep").Mix(query.sel_class);
      return fp.value();
    case QueryKind::kBinarySelect:
      fp.Mix("binary-select-sweep").Mix(query.sel_class);
      return fp.value();
    case QueryKind::kCountDistinct:
    case QueryKind::kExhaustive:
      break;
  }
  // No trained model to share: singleton group.
  fp.Mix("solo").Mix(static_cast<uint64_t>(query_index));
  return fp.value();
}

}  // namespace blazeit
