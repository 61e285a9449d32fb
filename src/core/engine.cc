#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

#include "core/shared_sweep.h"
#include "exec/thread_pool.h"
#include "filters/calibration.h"
#include "filters/label_filter.h"
#include "frameql/parser.h"
#include "net/http.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "storage/segment_sketch.h"
#include "track/iou_tracker.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

/// The sketch probe mirroring exactly the per-frame predicate a full scan
/// evaluates (requirements, class/ROI/area detection filters, or bare
/// any-detection).
SketchProbe ProbeForQuery(const StreamData& stream,
                          const AnalyzedQuery& query) {
  SketchProbe probe;
  probe.score_threshold = stream.config.detection_threshold;
  probe.requirements = query.requirements;
  probe.sel_class = query.sel_class;
  probe.has_roi = query.has_roi;
  probe.roi = query.roi;
  probe.min_area_px = query.min_area_px;
  probe.frame_width = stream.config.width;
  probe.frame_height = stream.config.height;
  probe.require_any = query.requirements.empty() && query.sel_class < 0 &&
                      !query.has_roi && query.min_area_px <= 0;
  return probe;
}

}  // namespace

BlazeItEngine::BlazeItEngine(VideoCatalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(options) {
  if (!options_.export_statusz) return;
  obs::StatusRegistry& registry = obs::StatusRegistry::Global();
  statusz_tokens_.push_back(registry.AddSection("engine", [this] {
    std::string streams = "[";
    bool first = true;
    for (const std::string& name : catalog_->StreamNames()) {
      if (!first) streams += ",";
      first = false;
      // Appended piecewise: the one-expression concatenation trips a GCC 12
      // -Werror=restrict false positive at -O3.
      streams += '"';
      streams += net::JsonEscape(name);
      streams += '"';
    }
    streams += "]";
    return StrFormat(
        "{\"streams\":%s,\"use_store_index\":%s,\"collect_reports\":%s}",
        streams.c_str(), options_.use_store_index ? "true" : "false",
        options_.collect_reports ? "true" : "false");
  }));
  statusz_tokens_.push_back(registry.AddSection("storage", [this] {
    DetectionStore* store = catalog_->detection_store();
    if (store == nullptr) return std::string("{\"enabled\":false}");
    std::string out = StrFormat(
        "{\"enabled\":true,\"dir\":\"%s\",\"total_records\":%lld,"
        "\"pending_records\":%lld,\"namespaces\":[",
        net::JsonEscape(store->dir()).c_str(),
        static_cast<long long>(store->TotalRecords()),
        static_cast<long long>(store->pending_records()));
    bool first = true;
    for (const auto& ns : store->PerNamespaceStats()) {
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"ns\":\"%016llx\",\"segments\":%lld,\"records\":%lld,"
          "\"pending\":%lld,\"shadowed\":%lld}",
          static_cast<unsigned long long>(ns.ns),
          static_cast<long long>(ns.segments),
          static_cast<long long>(ns.records),
          static_cast<long long>(ns.pending),
          static_cast<long long>(ns.shadowed));
    }
    out += "]}";
    return out;
  }));
}

BlazeItEngine::~BlazeItEngine() {
  for (int64_t token : statusz_tokens_) {
    obs::StatusRegistry::Global().Remove(token);
  }
}

Result<PreparedQuery> BlazeItEngine::Prepare(const std::string& frameql,
                                             obs::QueryTrace* trace) {
  PreparedQuery prepared;
  FrameQLQuery parsed;
  {
    obs::TraceSpan span(trace, "parse");
    BLAZEIT_ASSIGN_OR_RETURN(parsed, ParseFrameQL(frameql));
  }
  {
    obs::TraceSpan span(trace, "analyze");
    BLAZEIT_ASSIGN_OR_RETURN(prepared.stream,
                             catalog_->GetStream(parsed.table));
    BLAZEIT_ASSIGN_OR_RETURN(
        prepared.query, AnalyzeQuery(parsed, prepared.stream->config));
  }
  return prepared;
}

ScheduledQuery BlazeItEngine::Admit(const std::string& frameql,
                                    size_t position) {
  ScheduledQuery admitted;
  admitted.frameql = frameql;
  if (options_.collect_reports) {
    admitted.trace = std::make_shared<obs::QueryTrace>(frameql);
  }
  admitted.prepared = Prepare(frameql, admitted.trace.get());
  admitted.correlation_id = obs::FlightRecorder::NextCorrelationId();
  if (admitted.prepared.ok()) {
    admitted.group_key =
        SharedSweepGroupKey(admitted.prepared.value().query, position);
  }
  return admitted;
}

void RecordFlight(const ScheduledQuery& query,
                  const Result<QueryOutput>& result, double wall_ms) {
  obs::FlightRecord record;
  record.correlation_id = query.correlation_id;
  record.client = query.client;
  record.query = query.frameql;
  record.trace = query.trace;
  record.degraded = query.degraded;
  record.wall_ms = wall_ms;
  record.ok = result.ok();
  if (result.ok()) {
    record.plan = PlanKindName(result.value().plan);
    record.cost_seconds = result.value().cost.TotalSeconds();
    if (result.value().report != nullptr) {
      record.accuracy_tier = result.value().report->accuracy_tier;
    }
  } else {
    record.error = result.status().ToString();
  }
  if (record.accuracy_tier.empty()) {
    record.accuracy_tier = query.degraded ? "degraded" : "full";
  }
  obs::FlightRecorder::Global().Record(std::move(record));
}

Result<QueryOutput> BlazeItEngine::Execute(const std::string& frameql) {
  std::vector<ScheduledQuery> query;
  query.push_back(Admit(frameql, /*position=*/0));
  BatchOutput run = RunScheduled(std::move(query), /*sweeps=*/nullptr,
                                 exec::ThreadPool::Budget::kDefault);
  return std::move(run.results.front());
}

Result<BatchOutput> BlazeItEngine::ExecuteBatch(
    const std::vector<std::string>& queries) {
  std::vector<ScheduledQuery> admitted;
  admitted.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    admitted.push_back(Admit(queries[i], i));
  }
  // The batch's sweeps live exactly as long as this call.
  SharedSweepCache sweeps;
  return RunScheduled(std::move(admitted), &sweeps,
                      exec::ThreadPool::Budget::kAnalytics);
}

BatchOutput BlazeItEngine::RunScheduled(std::vector<ScheduledQuery> queries,
                                        SharedSweepCache* sweeps,
                                        exec::ThreadPool::Budget budget,
                                        const ResultCallback& on_result) {
  const auto started = std::chrono::steady_clock::now();
  const size_t n = queries.size();
  BatchOutput out;
  out.results.assign(
      n, Result<QueryOutput>(Status::Internal("query not executed")));
  out.stats.assign(n, BatchQueryStats{});
  auto complete = [&](size_t idx) {
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - started)
                               .count();
    RecordFlight(queries[idx], out.results[idx], wall_ms);
    if (on_result) on_result(idx, std::move(out.results[idx]), out.stats[idx]);
  };

  // --- shared-plan pass: group by the admitted group key ---
  // Groups keep first-appearance order and queries keep submission order
  // within a group, so the leader of each group — the query that pays for
  // the group's training run and sweeps — is always the earliest one.
  // Prepare errors complete here and join no group; a degraded query
  // shares no sweep, so it runs in a group of its own.
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<uint64_t, size_t> key_to_group;
  for (size_t i = 0; i < n; ++i) {
    if (!queries[i].prepared.ok()) {
      out.results[i] = queries[i].prepared.status();
      complete(i);
      continue;
    }
    if (queries[i].degraded) {
      groups.push_back({i});
      continue;
    }
    auto [it, inserted] = key_to_group.emplace(queries[i].group_key,
                                               groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  out.groups = static_cast<int64_t>(groups.size());

  // --- run the groups concurrently, each group serially ---
  // Per-query results/stats go to disjoint slots; per-query outputs are
  // independent of scheduling because every cache hit is bit-identical to
  // recomputation (the ArtifactCache contract), so this parallelism — like
  // the exec pool's — cannot change output bits.
  //
  // Parallelism shape: with a single group (always so for Execute)
  // RunShards executes inline on the caller (no nested-section marking),
  // so the group's NN training/inference keeps full intra-query sharding.
  // With multiple groups the pool parallelizes *across* groups and each
  // query's inner parallel sections run inline on that group's worker —
  // batch-level concurrency replaces intra-query concurrency, keeping
  // total CPU use bounded by the one process-wide pool.
  exec::ThreadPool::Instance().RunShards(
      static_cast<int64_t>(groups.size()),
      [&](int64_t g, int /*slot*/) {
        for (size_t idx : groups[static_cast<size_t>(g)]) {
          const ScheduledQuery& q = queries[idx];
          SweepCacheView view(sweeps,
                              q.prepared.value().stream->artifact_cache);
          Result<QueryOutput> result = ExecutePrepared(q, &view);
          // Stats are filled only for successful queries (the documented
          // all-zero contract for failures).
          if (result.ok()) {
            BatchQueryStats& qs = out.stats[idx];
            qs.group = g;
            qs.shared_nn_frames = view.stats().shared_nn_frames;
            qs.shared_filter_frames = view.stats().shared_filter_frames;
            qs.shared_models = view.stats().shared_models;
            if (sweeps != nullptr && result.value().report != nullptr) {
              result.value().report->batch_group = g;
            }
            const CostMeter& cost = result.value().cost;
            qs.standalone_seconds = cost.TotalSeconds();
            double saved = static_cast<double>(qs.shared_nn_frames) *
                               cost.profile().specialized_nn_sec_per_frame +
                           static_cast<double>(qs.shared_filter_frames) *
                               cost.profile().filter_sec_per_frame;
            if (qs.shared_models > 0) saved += cost.training_seconds();
            qs.batch_seconds = std::max(0.0, qs.standalone_seconds - saved);
          }
          out.results[idx] = std::move(result);
          complete(idx);
        }
      },
      budget);

  // Serial fixed-order fold for the totals.
  for (const BatchQueryStats& qs : out.stats) {
    out.standalone_seconds += qs.standalone_seconds;
    out.batch_seconds += qs.batch_seconds;
  }
  return out;
}

Result<QueryOutput> BlazeItEngine::ExecutePrepared(
    const ScheduledQuery& scheduled, SweepCacheView* cache) {
  const PreparedQuery& prepared = scheduled.prepared.value();
  StreamData* stream = prepared.stream;
  const AnalyzedQuery& query = prepared.query;
  const std::shared_ptr<obs::QueryTrace>& trace = scheduled.trace;
  std::shared_ptr<obs::ExecutionReport> report;
  if (options_.collect_reports) {
    report = std::make_shared<obs::ExecutionReport>();
    report->query = scheduled.frameql;
  }

  PlanChoice plan;
  if (scheduled.degraded) {
    // Load shedding: the plan the optimizer picks when the training data
    // cannot support a NN, with no NN training or sweeps.
    const bool aggregate = query.kind == QueryKind::kAggregate;
    plan.kind =
        aggregate ? PlanKind::kAqpAggregation : PlanKind::kScanScrubbing;
    plan.rationale = aggregate ? "load-shed: sampling estimator, no NN training"
                               : "load-shed: sketch-only scan, no NN ranking";
    if (report != nullptr) {
      report->accuracy_tier = aggregate ? "degraded-sampling" : "degraded-scan";
    }
  } else {
    obs::TraceSpan span(trace.get(), "optimize");
    plan = ChoosePlan(query, stream);
  }
  BLAZEIT_LOG(kDebug).Field("cid", scheduled.correlation_id)
      << "plan: " << PlanKindName(plan.kind) << " — " << plan.rationale;

  QueryOutput out;
  out.kind = query.kind;
  out.plan = plan.kind;
  out.plan_description = plan.rationale;

  const std::string execute_label =
      std::string("execute:") + PlanKindName(plan.kind);
  obs::TraceSpan execute_span(trace.get(), execute_label.c_str());

  Result<QueryOutput> executed = [&]() -> Result<QueryOutput> {
    switch (query.kind) {
      case QueryKind::kAggregate: {
        BLAZEIT_ASSIGN_OR_RETURN(
            FrameWindow window,
            ResolveFrameWindow(query, stream->config.fps,
                               stream->test_day->num_frames()));
        AggregationExecutor executor(stream, options_.aggregate, cache,
                                     trace.get());
        BLAZEIT_ASSIGN_OR_RETURN(
            AggregateResult agg,
            scheduled.degraded
                ? executor.RunPlainAqp(query.agg_class, query.error,
                                       query.confidence, window)
                : executor.Run(query.agg_class, query.error,
                               query.confidence, window));
        out.scalar = agg.estimate;
        if (query.scale_to_total) {
          // COUNT(*) scales the frame-averaged estimate by the number of
          // frames the query actually ranges over.
          out.scalar *= static_cast<double>(window.end - window.begin);
        }
        out.cost = agg.cost;
        return out;
      }
      case QueryKind::kCountDistinct:
        return ExecuteCountDistinct(stream, query, trace.get(),
                                    report.get());
      case QueryKind::kScrubbing: {
        BLAZEIT_ASSIGN_OR_RETURN(
            FrameWindow window,
            ResolveFrameWindow(query, stream->config.fps,
                               stream->test_day->num_frames()));
        ScrubbingExecutor executor(stream, options_.scrub, cache, trace.get(),
                                   options_.use_store_index);
        BLAZEIT_ASSIGN_OR_RETURN(
            ScrubResult scrub,
            scheduled.degraded
                ? executor.RunScan(query.requirements, query.limit, query.gap,
                                   window)
                : executor.Run(query.requirements, query.limit, query.gap,
                               window));
        out.frames = scrub.frames;
        out.cost = scrub.cost;
        if (report != nullptr) report->sketch = scrub.sketch;
        return out;
      }
      case QueryKind::kSelection: {
        SelectionExecutor executor(stream, &udfs_, options_.selection, cache,
                                   trace.get());
        BLAZEIT_ASSIGN_OR_RETURN(SelectionResult sel, executor.Run(query));
        out.rows = std::move(sel.rows);
        for (const SelectionEvent& event : sel.events) {
          out.frames.push_back(event.first_frame);
        }
        out.cost = sel.cost;
        out.plan_description += " | " + sel.plan;
        return out;
      }
      case QueryKind::kBinarySelect:
        return ExecuteBinarySelect(stream, query, cache, trace.get());
      case QueryKind::kExhaustive:
        return ExecuteFullScan(stream, query, trace.get(), report.get());
    }
    return Status::Internal("unhandled query kind");
  }();
  if (!executed.ok()) return executed;

  QueryOutput result = std::move(executed).value();
  if (report != nullptr) {
    report->plan = PlanKindName(result.plan);
    report->plan_description = result.plan_description;
    report->FillCost(result.cost);
    report->cache = cache->stats();
    report->trace = trace;
    result.report = std::move(report);
  }
  return result;
}

Result<QueryOutput> BlazeItEngine::ExecuteCountDistinct(
    StreamData* stream, const AnalyzedQuery& query, obs::QueryTrace* trace,
    obs::ExecutionReport* report) {
  // Entity resolution requires consecutive-frame detections, so this runs
  // the detector over the query's full time range (the paper does not
  // optimize distinct counts; they are supported for completeness of
  // FrameQL).
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kTrackerCountDistinct;
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps,
                         stream->test_day->num_frames()));
  // Sketch consultation: a segment with no detections of the counted
  // class contributes only empty tracker updates — the first one closes
  // every open track without minting an id, the rest are no-ops. Skipping
  // the whole gap and issuing one empty Update is therefore bit-identical
  // to walking it, while the skipped frames charge no detector calls.
  SketchProbe probe;
  probe.score_threshold = stream->config.detection_threshold;
  probe.requirements = {{query.agg_class, 1}};
  const std::vector<SketchIndex::FrameRange> ranges = SketchCandidateRanges(
      *stream, window, probe, options_.use_store_index,
      report != nullptr ? &report->sketch : nullptr);
  obs::TraceSpan span(trace, "track", &out.cost);
  IouTracker tracker;
  int64_t distinct = 0;
  int64_t walked_to = window.begin;
  for (const auto& range : ranges) {
    if (range.begin > walked_to) tracker.Update({});  // skipped gap
    for (int64_t t = range.begin; t < range.end; ++t) {
      out.cost.ChargeDetection();
      std::vector<Detection> dets = FilterClass(
          stream->test_labels->DetectionsAt(t), query.agg_class,
          /*score_threshold=*/0.0);  // already thresholded by the labeled set
      int64_t before = tracker.next_track_id();
      tracker.Update(dets);
      distinct += tracker.next_track_id() - before;
    }
    walked_to = range.end;
  }
  out.scalar = static_cast<double>(distinct);
  return out;
}

Result<QueryOutput> BlazeItEngine::ExecuteBinarySelect(
    StreamData* stream, const AnalyzedQuery& query,
    ArtifactCache* cache, obs::QueryTrace* trace) {
  // NoScope replication: a specialized NN filters frames; the detector
  // verifies everything the NN lets through, so false positives are
  // eliminated and the false-negative rate is controlled by calibrating
  // the NN threshold on the held-out day.
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kBinaryDetection;
  const SyntheticVideo& test = *stream->test_day;
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps, test.num_frames()));
  // Range entirely past the recorded day: zero frames match, and charging
  // NN training to discover that would be inconsistent with the free
  // empty results of the other executors.
  if (window.end <= window.begin) return out;

  const std::vector<int>& train_counts =
      stream->train_labels->Counts(query.sel_class);
  const std::vector<int>& test_counts =
      stream->test_labels->Counts(query.sel_class);
  if (PositiveTrainingFrames(*stream, query.sel_class) == 0) {
    // Cannot specialize: verify every frame in range.
    obs::TraceSpan span(trace, "verify", &out.cost);
    for (int64_t t = window.begin; t < window.end; ++t) {
      out.cost.ChargeDetection();
      if (test_counts[static_cast<size_t>(t)] > 0) out.frames.push_back(t);
    }
    return out;
  }

  SpecializedNNConfig nn_config = options_.selection.nn;
  nn_config.train.seed = HashCombine(options_.selection.seed, 0xb1de);
  nn_config.cache = cache;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace, "train", &out.cost);
    return SpecializedNN::Train(*stream->train_day, {train_counts},
                                nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  out.cost.ChargeTraining(trained.value().trained_frames());
  LabelFilter filter(std::move(trained).value(), {1});

  {
    obs::TraceSpan span(trace, "calibrate", &out.cost);
    std::vector<char> positive_mask;
    positive_mask.reserve(
        static_cast<size_t>(stream->held_out_day->num_frames()));
    const std::vector<int>& held_counts =
        stream->held_out_labels->Counts(query.sel_class);
    for (int c : held_counts) positive_mask.push_back(c > 0 ? 1 : 0);
    auto calib = CalibrateNoFalseNegatives(&filter, *stream->held_out_day,
                                           positive_mask);
    BLAZEIT_RETURN_NOT_OK(calib.status());
    out.cost.ChargeSpecializedNN(stream->held_out_day->num_frames());
  }

  const int64_t n_window = window.end - window.begin;
  std::vector<int64_t> test_frames(static_cast<size_t>(n_window));
  std::iota(test_frames.begin(), test_frames.end(), window.begin);
  std::vector<double> scores;
  {
    obs::TraceSpan span(trace, "sweep", &out.cost);
    scores = filter.ScoreBatch(test, test_frames);
    out.cost.ChargeSpecializedNN(n_window);
  }
  obs::TraceSpan span(trace, "verify", &out.cost);
  for (int64_t i = 0; i < n_window; ++i) {
    const int64_t t = window.begin + i;
    if (scores[static_cast<size_t>(i)] < filter.threshold()) continue;
    out.cost.ChargeDetection();
    if (test_counts[static_cast<size_t>(t)] > 0) out.frames.push_back(t);
  }
  return out;
}

Result<QueryOutput> BlazeItEngine::ExecuteFullScan(
    StreamData* stream, const AnalyzedQuery& query, obs::QueryTrace* trace,
    obs::ExecutionReport* report) {
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kFullScan;
  // The scan is exhaustive, not unconditional: every analyzed predicate
  // still restricts the result. Content UDFs are the one thing this plan
  // does not evaluate — refuse them loudly rather than silently dropping
  // the conjunct (the selection and scrubbing plans cover those queries).
  for (const Predicate& pred : query.udf_predicates) {
    if (pred.kind == Predicate::Kind::kUdf ||
        pred.kind == Predicate::Kind::kUdfString) {
      return Status::Unimplemented(
          "exhaustive scans do not evaluate content UDF predicates; use "
          "SELECT * with a class predicate (selection) or add a LIMIT "
          "(scrubbing)");
    }
  }
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps,
                         stream->test_day->num_frames()));
  const bool filter_detections =
      query.sel_class >= 0 || query.has_roi || query.min_area_px > 0;
  // Sketch-candidate subranges (the whole window when unindexed): a
  // pruned segment provably contains no matching frame, so skipping it
  // removes only detector charges, never results.
  const std::vector<SketchIndex::FrameRange> ranges = SketchCandidateRanges(
      *stream, window, ProbeForQuery(*stream, query), options_.use_store_index,
      report != nullptr ? &report->sketch : nullptr);
  obs::TraceSpan span(trace, "scan", &out.cost);
  for (const auto& range : ranges) {
    for (int64_t t = range.begin; t < range.end; ++t) {
      out.cost.ChargeDetection();
      // HAVING SUM(class=...) >= N requirements (reachable here when the
      // query has no LIMIT to make it a scrubbing plan).
      if (!query.requirements.empty() &&
          !SatisfiesRequirements(*stream, t, query.requirements)) {
        continue;
      }
      bool any;
      if (filter_detections) {
        any = false;
        for (const Detection& det : stream->test_labels->DetectionsAt(t)) {
          if (query.sel_class >= 0 && det.class_id != query.sel_class) {
            continue;
          }
          if (query.has_roi &&
              !query.roi.Contains(det.rect.CenterX(), det.rect.CenterY())) {
            continue;
          }
          if (query.min_area_px > 0 &&
              PixelArea(det.rect, stream->config.width,
                        stream->config.height) < query.min_area_px) {
            continue;
          }
          any = true;
          break;
        }
      } else if (!query.requirements.empty()) {
        any = true;  // the requirements check above is the whole predicate
      } else {
        any = !stream->test_labels->DetectionsAt(t).empty();
      }
      if (any) out.frames.push_back(t);
    }
  }
  return out;
}

}  // namespace blazeit
