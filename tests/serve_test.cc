// The serving layer's fast-lane contract: admission control (bounded
// queue, per-client quotas -> ResourceExhausted), deterministic
// virtual-clock batching windows, zero-window pass-through that is
// bit-identical to serial Execute, parse errors landing in the response
// slot (not the Submit result), load shedding running aggregates and
// scrubbing as degraded queries on the engine's cheap plans — plain AQP
// over the query's window, the executor's sequential scan — with the
// downgrade disclosed in the ExecutionReport's accuracy_tier, and
// cross-client coalescing surfacing in ServerStats. Everything here avoids
// NN training (naive selections, exhaustive scans, shed queries) so the
// suite stays in the fast lane; the bit-identity sweep across pool sizes
// lives in serve_determinism_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregation.h"
#include "core/engine.h"
#include "core/scrubbing.h"
#include "core/optimizer.h"
#include "obs/flight_recorder.h"
#include "serve/admission_queue.h"
#include "testing/test_util.h"
#include "util/status.h"

namespace blazeit {
namespace {

using serve::AdmissionQueue;
using serve::ServeOptions;
using serve::ServeResponse;

::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

/// Cheap queries: a naive content-based selection (no applicable filters,
/// so no NN) and an exhaustive scan. Identical selections from different
/// clients share a plan group, which is what the coalescing stats watch.
const char kSelectBus[] =
    "SELECT * FROM taipei WHERE class = 'bus' AND timestamp >= 0 "
    "AND timestamp < 200";
const char kExhaustive[] =
    "SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 30";
const char kAggregate[] =
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%";
const char kScrubbing[] =
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50";

class ServeTest : public testutil::CatalogFixture<ServeTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(600, 400, 1200); }

 protected:
  static void SetUpTestSuite() {
    CatalogFixture::SetUpTestSuite();
    EngineOptions options = testutil::SmallEngineOptions();
    options.collect_reports = true;
    engine_ = new BlazeItEngine(catalog_, options);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    CatalogFixture::TearDownTestSuite();
  }

  static void ExpectSameOutput(const QueryOutput& served,
                               const QueryOutput& serial) {
    EXPECT_EQ(served.kind, serial.kind);
    EXPECT_EQ(served.plan, serial.plan);
    EXPECT_TRUE(BitsEqual(served.scalar, serial.scalar));
    EXPECT_EQ(served.frames, serial.frames);
    ASSERT_EQ(served.rows.size(), serial.rows.size());
    for (size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(served.rows[r].frame, serial.rows[r].frame);
    }
    EXPECT_EQ(served.cost.detection_calls(), serial.cost.detection_calls());
    EXPECT_EQ(served.cost.specialized_nn_calls(),
              serial.cost.specialized_nn_calls());
    EXPECT_TRUE(
        BitsEqual(served.cost.TotalSeconds(), serial.cost.TotalSeconds()));
    EXPECT_EQ(served.plan_description, serial.plan_description);
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* ServeTest::engine_ = nullptr;

TEST_F(ServeTest, ZeroWindowPassThroughMatchesSerialExecute) {
  ServeOptions options;
  options.window_ticks = 0;  // every Submit executes immediately
  AdmissionQueue queue(engine_, options);

  auto ticket = queue.Submit("alice", kExhaustive);
  BLAZEIT_ASSERT_OK(ticket);
  EXPECT_EQ(queue.queue_depth(), 0);  // already executed, nothing pending

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  const ServeResponse& resp = completed[0];
  EXPECT_EQ(resp.ticket, ticket.value());
  EXPECT_EQ(resp.client, "alice");
  EXPECT_FALSE(resp.degraded);
  BLAZEIT_ASSERT_OK(resp.output);

  auto serial = engine_->Execute(kExhaustive);
  BLAZEIT_ASSERT_OK(serial);
  ExpectSameOutput(resp.output.value(), serial.value());
  // TakeCompleted moves responses out; a second take is empty.
  EXPECT_TRUE(queue.TakeCompleted().empty());
}

TEST_F(ServeTest, WindowHoldsQueriesUntilClockAdvances) {
  ServeOptions options;
  options.window_ticks = 2;
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  BLAZEIT_ASSERT_OK(queue.Submit("bob", kSelectBus));
  EXPECT_EQ(queue.queue_depth(), 2);
  EXPECT_TRUE(queue.TakeCompleted().empty());

  queue.Advance();  // tick 1 of 2: window still open
  EXPECT_EQ(queue.queue_depth(), 2);
  queue.Advance();  // tick 2 closes the window and runs the batch
  EXPECT_EQ(queue.queue_depth(), 0);

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 2u);
  for (const ServeResponse& resp : completed) {
    BLAZEIT_EXPECT_OK(resp.output);
    EXPECT_EQ(resp.admitted_tick, 0);
    EXPECT_EQ(resp.executed_tick, 2);
  }
  EXPECT_EQ(queue.stats().batches, 1);
  EXPECT_EQ(queue.stats().submitted, 2);
}

TEST_F(ServeTest, PerClientQuotaExhaustionIsResourceExhausted) {
  ServeOptions options;
  options.window_ticks = 100;  // hold everything pending
  options.per_client_quota = 1;
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  auto over = queue.Submit("alice", kExhaustive);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  // The quota is per client: another client still gets in.
  BLAZEIT_ASSERT_OK(queue.Submit("bob", kExhaustive));
  EXPECT_EQ(queue.stats().rejected_quota, 1);
  EXPECT_EQ(queue.stats().submitted, 2);

  // Draining frees the quota: the same client can submit again.
  queue.Drain();
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  queue.Drain();
  EXPECT_EQ(queue.TakeCompleted().size(), 3u);
}

TEST_F(ServeTest, FullQueueRejectsWithResourceExhausted) {
  ServeOptions options;
  options.window_ticks = 100;
  options.max_queue_depth = 1;
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  auto over = queue.Submit("bob", kExhaustive);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_queue_full, 1);
  queue.Drain();
}

TEST_F(ServeTest, ParseErrorLandsInResponseNotSubmit) {
  AdmissionQueue queue(engine_);
  auto ticket = queue.Submit("alice", "SELEC oops");
  BLAZEIT_ASSERT_OK(ticket);  // admission succeeds; the *query* failed
  queue.Drain();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  ASSERT_FALSE(completed[0].output.ok());
  // Same error, same place, as serial Execute.
  auto serial = engine_->Execute("SELEC oops");
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(completed[0].output.status(), serial.status());
}

TEST_F(ServeTest, ShedAggregateDowngradesToSamplingEstimator) {
  ServeOptions options;
  options.window_ticks = 100;
  options.shed_depth = 0;  // everything admitted under pressure
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kAggregate));
  queue.Drain();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  const ServeResponse& resp = completed[0];
  EXPECT_TRUE(resp.degraded);
  BLAZEIT_ASSERT_OK(resp.output);
  const QueryOutput& out = resp.output.value();
  EXPECT_EQ(out.plan, PlanKind::kAqpAggregation);
  EXPECT_GT(out.scalar, 0.0);
  // No NN was trained or swept on the shed path.
  EXPECT_EQ(out.cost.specialized_nn_calls(), 0);
  EXPECT_EQ(out.cost.training_frames(), 0);
  ASSERT_NE(out.report, nullptr);
  EXPECT_EQ(out.report->accuracy_tier, "degraded-sampling");
  EXPECT_NE(out.report->ToJson().find("\"accuracy_tier\":\"degraded-sampling\""),
            std::string::npos);
  EXPECT_EQ(queue.stats().shed, 1);
}

TEST_F(ServeTest, ShedScrubbingDowngradesToSketchOnlyScan) {
  ServeOptions options;
  options.window_ticks = 100;
  options.shed_depth = 0;
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kScrubbing));
  queue.Drain();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  const ServeResponse& resp = completed[0];
  EXPECT_TRUE(resp.degraded);
  BLAZEIT_ASSERT_OK(resp.output);
  const QueryOutput& out = resp.output.value();
  EXPECT_EQ(out.plan, PlanKind::kScanScrubbing);
  EXPECT_LE(out.frames.size(), 5u);  // LIMIT respected
  for (size_t i = 1; i < out.frames.size(); ++i) {
    EXPECT_GE(out.frames[i] - out.frames[i - 1], 50);  // GAP respected
  }
  EXPECT_EQ(out.cost.specialized_nn_calls(), 0);
  ASSERT_NE(out.report, nullptr);
  EXPECT_EQ(out.report->accuracy_tier, "degraded-scan");
}

// A shed aggregate runs the engine's plain-AQP plan over the query's own
// window: bit-identical to AggregationExecutor::RunPlainAqp there, not a
// day-wide estimate.
TEST_F(ServeTest, ShedAggregateIsPlainAqpOverItsWindow) {
  const char kWindowed[] =
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' AND timestamp >= 10 "
      "AND timestamp < 25 ERROR WITHIN 0.1 AT CONFIDENCE 95%";
  ServeOptions options;
  options.window_ticks = 100;
  options.shed_depth = 0;
  AdmissionQueue queue(engine_, options);
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kWindowed));
  queue.Drain();
  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  ASSERT_TRUE(completed[0].degraded);
  BLAZEIT_ASSERT_OK(completed[0].output);
  const QueryOutput& shed = completed[0].output.value();

  auto prepared = engine_->Prepare(kWindowed);
  BLAZEIT_ASSERT_OK(prepared);
  const AnalyzedQuery& query = prepared.value().query;
  auto window =
      ResolveFrameWindow(query, stream_->config.fps,
                         stream_->test_day->num_frames());
  BLAZEIT_ASSERT_OK(window);
  ASSERT_EQ(window.value().begin, 300);
  ASSERT_EQ(window.value().end, 750);
  AggregationExecutor executor(stream_, engine_->options().aggregate);
  auto direct = executor.RunPlainAqp(query.agg_class, query.error,
                                     query.confidence, window.value());
  BLAZEIT_ASSERT_OK(direct);
  EXPECT_TRUE(BitsEqual(shed.scalar, direct.value().estimate));
  EXPECT_EQ(shed.cost.detection_calls(), direct.value().detection_calls);
  EXPECT_TRUE(BitsEqual(shed.cost.TotalSeconds(),
                        direct.value().cost.TotalSeconds()));
  EXPECT_EQ(shed.plan, PlanKind::kAqpAggregation);
}

// A shed scrub is the scrubbing executor's scan plan on the same query.
TEST_F(ServeTest, ShedScrubbingIsTheExecutorsScan) {
  ServeOptions options;
  options.window_ticks = 100;
  options.shed_depth = 0;
  AdmissionQueue queue(engine_, options);
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kScrubbing));
  queue.Drain();
  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  ASSERT_TRUE(completed[0].degraded);
  BLAZEIT_ASSERT_OK(completed[0].output);
  const QueryOutput& shed = completed[0].output.value();

  auto prepared = engine_->Prepare(kScrubbing);
  BLAZEIT_ASSERT_OK(prepared);
  const AnalyzedQuery& query = prepared.value().query;
  ScrubbingExecutor executor(stream_, engine_->options().scrub,
                             /*sweep_cache=*/nullptr, /*trace=*/nullptr,
                             engine_->options().use_store_index);
  auto direct = executor.RunScan(query.requirements, query.limit, query.gap);
  BLAZEIT_ASSERT_OK(direct);
  EXPECT_FALSE(direct.value().frames.empty());
  EXPECT_EQ(shed.frames, direct.value().frames);
  EXPECT_EQ(shed.cost.detection_calls(), direct.value().detection_calls);
  EXPECT_TRUE(BitsEqual(shed.cost.TotalSeconds(),
                        direct.value().cost.TotalSeconds()));
  EXPECT_EQ(shed.plan, PlanKind::kScanScrubbing);
}

TEST_F(ServeTest, ShedLeavesUnsheddableKindsOnFullPlan) {
  ServeOptions options;
  options.window_ticks = 100;
  options.shed_depth = 0;
  AdmissionQueue queue(engine_, options);

  // Exhaustive scans have no cheaper baseline; they run the full plan
  // even under shedding pressure, bit-identical to serial.
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  queue.Drain();
  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_FALSE(completed[0].degraded);
  BLAZEIT_ASSERT_OK(completed[0].output);
  auto serial = engine_->Execute(kExhaustive);
  BLAZEIT_ASSERT_OK(serial);
  ExpectSameOutput(completed[0].output.value(), serial.value());
  ASSERT_NE(completed[0].output.value().report, nullptr);
  EXPECT_EQ(completed[0].output.value().report->accuracy_tier, "full");
  EXPECT_EQ(queue.stats().shed, 0);
}

TEST_F(ServeTest, CrossClientCoalescingSurfacesInStats) {
  ServeOptions options;
  options.window_ticks = 100;
  AdmissionQueue queue(engine_, options);

  // The same selection from two clients lands in one shared-plan group;
  // a third, different query gets its own.
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kSelectBus));
  BLAZEIT_ASSERT_OK(queue.Submit("bob", kSelectBus));
  BLAZEIT_ASSERT_OK(queue.Submit("carol", kExhaustive));
  queue.Drain();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 3u);
  for (const ServeResponse& resp : completed) BLAZEIT_EXPECT_OK(resp.output);
  const serve::ServerStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.groups, 2);
  EXPECT_EQ(stats.coalesced_queries, 2);
  EXPECT_EQ(stats.cross_client_groups, 1);
  EXPECT_GE(stats.standalone_seconds, stats.batch_seconds);
}

TEST_F(ServeTest, TicketsAreMonotonicAndResponsesCarryMetadata) {
  ServeOptions options;
  options.window_ticks = 1;
  AdmissionQueue queue(engine_, options);

  auto t0 = queue.Submit("alice", kExhaustive);
  auto t1 = queue.Submit("bob", kSelectBus);
  BLAZEIT_ASSERT_OK(t0);
  BLAZEIT_ASSERT_OK(t1);
  EXPECT_LT(t0.value(), t1.value());
  queue.Advance();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 2u);
  for (const ServeResponse& resp : completed) {
    if (resp.ticket == t0.value()) {
      EXPECT_EQ(resp.client, "alice");
      EXPECT_EQ(resp.frameql, kExhaustive);
    } else {
      EXPECT_EQ(resp.ticket, t1.value());
      EXPECT_EQ(resp.client, "bob");
      EXPECT_EQ(resp.frameql, kSelectBus);
    }
  }
}

TEST_F(ServeTest, CancelWithdrawsPendingQueryAndFreesQuota) {
  ServeOptions options;
  options.window_ticks = 100;  // hold everything pending
  options.per_client_quota = 1;
  AdmissionQueue queue(engine_, options);

  auto ticket = queue.Submit("alice", kExhaustive);
  BLAZEIT_ASSERT_OK(ticket);
  EXPECT_EQ(queue.queue_depth(), 1);

  BLAZEIT_EXPECT_OK(queue.Cancel(ticket.value()));
  EXPECT_EQ(queue.queue_depth(), 0);

  // The cancelled ticket still produces exactly one response, carrying
  // Cancelled in its output slot.
  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].ticket, ticket.value());
  EXPECT_EQ(completed[0].client, "alice");
  ASSERT_FALSE(completed[0].output.ok());
  EXPECT_EQ(completed[0].output.status().code(), StatusCode::kCancelled);

  // The quota slot freed immediately: the same client gets in again
  // without a drain.
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  EXPECT_EQ(queue.stats().cancelled, 1);

  // Cancelling the same ticket twice (or an unknown one) is NotFound.
  EXPECT_EQ(queue.Cancel(ticket.value()).code(), StatusCode::kNotFound);
  EXPECT_EQ(queue.Cancel(123456).code(), StatusCode::kNotFound);
  queue.Drain();
}

TEST_F(ServeTest, CancelAfterWindowCutIsNotFound) {
  ServeOptions options;
  options.window_ticks = 1;
  AdmissionQueue queue(engine_, options);

  auto ticket = queue.Submit("alice", kExhaustive);
  BLAZEIT_ASSERT_OK(ticket);
  queue.Advance();  // window cuts; the query executes

  // Execution is never interrupted: once cut, Cancel refuses.
  EXPECT_EQ(queue.Cancel(ticket.value()).code(), StatusCode::kNotFound);
  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  BLAZEIT_EXPECT_OK(completed[0].output);
  EXPECT_EQ(queue.stats().cancelled, 0);
}

TEST_F(ServeTest, CancelledQueriesNeverExecute) {
  ServeOptions options;
  options.window_ticks = 100;
  AdmissionQueue queue(engine_, options);

  auto keep = queue.Submit("alice", kExhaustive);
  auto drop = queue.Submit("bob", kSelectBus);
  BLAZEIT_ASSERT_OK(keep);
  BLAZEIT_ASSERT_OK(drop);
  BLAZEIT_EXPECT_OK(queue.Cancel(drop.value()));
  queue.Drain();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 2u);
  for (const ServeResponse& resp : completed) {
    if (resp.ticket == keep.value()) {
      BLAZEIT_EXPECT_OK(resp.output);
    } else {
      EXPECT_EQ(resp.ticket, drop.value());
      EXPECT_EQ(resp.output.status().code(), StatusCode::kCancelled);
    }
  }
  // Only the surviving query reached the scheduler.
  EXPECT_EQ(queue.stats().batches, 1);
  EXPECT_EQ(queue.stats().coalesced_queries, 0);
}

TEST_F(ServeTest, WallClockDriverCutsWindowsWithoutManualAdvance) {
  ServeOptions options;
  options.window_ticks = 1;
  options.wall_clock_tick_ms = 5;  // timer thread drives Advance(1)
  AdmissionQueue queue(engine_, options);

  auto ticket = queue.Submit("alice", kExhaustive);
  BLAZEIT_ASSERT_OK(ticket);

  // Never call Advance/Drain: the ticker must cut the window. Generous
  // deadline so a loaded CI machine cannot flake this.
  std::vector<ServeResponse> completed;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.empty() && std::chrono::steady_clock::now() < deadline) {
    completed = queue.TakeCompleted();
    if (completed.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].ticket, ticket.value());
  BLAZEIT_EXPECT_OK(completed[0].output);
  EXPECT_GT(queue.now(), 0);  // the virtual clock really moved

  // The ticker keeps running; the response matches serial execution
  // (wall-clock mode changes *when* windows cut, never *what* runs).
  auto serial = engine_->Execute(kExhaustive);
  BLAZEIT_ASSERT_OK(serial);
  ExpectSameOutput(completed[0].output.value(), serial.value());
}

TEST_F(ServeTest, ResponsesCarryCorrelationIdsIntoFlightRecorder) {
  ServeOptions options;
  options.window_ticks = 1;
  AdmissionQueue queue(engine_, options);

  auto ticket = queue.Submit("alice", kExhaustive);
  BLAZEIT_ASSERT_OK(ticket);
  queue.Advance();

  std::vector<ServeResponse> completed = queue.TakeCompleted();
  ASSERT_EQ(completed.size(), 1u);
  const ServeResponse& resp = completed[0];
  EXPECT_GT(resp.correlation_id, 0);

  // The completion path flight-recorded the query under the same
  // correlation id, attributed to the submitting client.
  bool found = false;
  for (const obs::FlightRecord& record :
       obs::FlightRecorder::Global().Snapshot()) {
    if (record.correlation_id != resp.correlation_id) continue;
    found = true;
    EXPECT_EQ(record.client, "alice");
    EXPECT_EQ(record.query, kExhaustive);
    EXPECT_TRUE(record.ok);
    EXPECT_FALSE(record.degraded);
    EXPECT_GE(record.wall_ms, 0.0);
    break;
  }
  EXPECT_TRUE(found) << "correlation id " << resp.correlation_id
                     << " not in the flight recorder";
}

/// Flight records appended since the recorder had `total_before` records
/// (FlightRecorder::total_recorded()), oldest first.
std::vector<obs::FlightRecord> RecordsSince(int64_t total_before) {
  std::vector<obs::FlightRecord> out;
  for (obs::FlightRecord& record :
       obs::FlightRecorder::Global().Snapshot()) {
    if (record.sequence >= total_before) out.push_back(std::move(record));
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// Retained flight records carrying `correlation_id`.
int64_t RecordsWithId(int64_t correlation_id) {
  int64_t n = 0;
  for (const obs::FlightRecord& record :
       obs::FlightRecorder::Global().Snapshot()) {
    if (record.correlation_id == correlation_id) ++n;
  }
  return n;
}

// Every entry point — Execute, ExecuteBatch, and the serving queue's
// run, shed and cancel paths — leaves exactly one flight record per
// query, under the query's own correlation id, with its outcome and
// accuracy tier; prepare errors included.
TEST_F(ServeTest, EveryQueryLeavesExactlyOneFlightRecord) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const char kBroken[] = "SELEC oops";

  {
    SCOPED_TRACE("Execute");
    const int64_t before = recorder.total_recorded();
    BLAZEIT_ASSERT_OK(engine_->Execute(kExhaustive));
    EXPECT_FALSE(engine_->Execute(kBroken).ok());
    std::vector<obs::FlightRecord> records = RecordsSince(before);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].query, kExhaustive);
    EXPECT_TRUE(records[0].ok);
    EXPECT_EQ(records[1].query, kBroken);
    EXPECT_FALSE(records[1].ok);
    EXPECT_FALSE(records[1].error.empty());
    for (const obs::FlightRecord& record : records) {
      EXPECT_EQ(RecordsWithId(record.correlation_id), 1);
      EXPECT_EQ(record.client, "");
      EXPECT_EQ(record.accuracy_tier, "full");
    }
  }
  {
    SCOPED_TRACE("ExecuteBatch");
    const int64_t before = recorder.total_recorded();
    auto batch = engine_->ExecuteBatch({kExhaustive, kBroken});
    BLAZEIT_ASSERT_OK(batch);
    std::vector<obs::FlightRecord> records = RecordsSince(before);
    ASSERT_EQ(records.size(), 2u);
    // The prepare error completes before the groups run.
    EXPECT_EQ(records[0].query, kBroken);
    EXPECT_FALSE(records[0].ok);
    EXPECT_EQ(records[1].query, kExhaustive);
    EXPECT_TRUE(records[1].ok);
    EXPECT_NE(records[0].correlation_id, records[1].correlation_id);
    for (const obs::FlightRecord& record : records) {
      EXPECT_EQ(RecordsWithId(record.correlation_id), 1);
      EXPECT_EQ(record.accuracy_tier, "full");
    }
  }
  {
    SCOPED_TRACE("served, shed and cancelled");
    ServeOptions options;
    options.window_ticks = 100;
    options.shed_depth = 1;  // the second query in the window is shed
    AdmissionQueue queue(engine_, options);
    const int64_t before = recorder.total_recorded();
    auto served = queue.Submit("alice", kExhaustive);
    auto shed = queue.Submit("bob", kAggregate);
    auto cancelled = queue.Submit("carol", kExhaustive);
    auto broken = queue.Submit("dave", kBroken);
    BLAZEIT_ASSERT_OK(served);
    BLAZEIT_ASSERT_OK(shed);
    BLAZEIT_ASSERT_OK(cancelled);
    BLAZEIT_ASSERT_OK(broken);
    BLAZEIT_ASSERT_OK(queue.Cancel(cancelled.value()));
    queue.Drain();
    std::vector<ServeResponse> completed = queue.TakeCompleted();
    ASSERT_EQ(completed.size(), 4u);
    EXPECT_EQ(static_cast<int64_t>(RecordsSince(before).size()), 4);
    for (const ServeResponse& resp : completed) {
      SCOPED_TRACE(resp.client);
      ASSERT_EQ(RecordsWithId(resp.correlation_id), 1);
      obs::FlightRecord record;
      for (obs::FlightRecord& r : recorder.Snapshot()) {
        if (r.correlation_id == resp.correlation_id) record = std::move(r);
      }
      EXPECT_EQ(record.client, resp.client);
      EXPECT_EQ(record.query, resp.frameql);
      EXPECT_EQ(record.ok, resp.output.ok());
      EXPECT_EQ(record.degraded, resp.degraded);
      if (resp.ticket == served.value()) {
        EXPECT_TRUE(record.ok);
        EXPECT_EQ(record.accuracy_tier, "full");
      } else if (resp.ticket == shed.value()) {
        EXPECT_TRUE(record.ok);
        EXPECT_TRUE(record.degraded);
        EXPECT_EQ(record.accuracy_tier, "degraded-sampling");
      } else if (resp.ticket == cancelled.value()) {
        EXPECT_FALSE(record.ok);
        EXPECT_NE(record.error.find("cancelled"), std::string::npos);
        EXPECT_EQ(record.accuracy_tier, "full");
      } else {
        EXPECT_EQ(resp.ticket, broken.value());
        EXPECT_FALSE(record.ok);
        EXPECT_EQ(record.accuracy_tier, "full");
      }
    }
  }
}

TEST_F(ServeTest, PerClientCountersTrackLifecycle) {
  ServeOptions options;
  options.window_ticks = 100;
  options.per_client_quota = 1;
  AdmissionQueue queue(engine_, options);

  BLAZEIT_ASSERT_OK(queue.Submit("alice", kExhaustive));
  EXPECT_FALSE(queue.Submit("alice", kExhaustive).ok());  // quota
  auto bob = queue.Submit("bob", kSelectBus);
  BLAZEIT_ASSERT_OK(bob);
  BLAZEIT_EXPECT_OK(queue.Cancel(bob.value()));
  queue.Drain();

  const auto counters = queue.client_counters();
  ASSERT_EQ(counters.count("alice"), 1u);
  ASSERT_EQ(counters.count("bob"), 1u);
  EXPECT_EQ(counters.at("alice").submitted, 1);
  EXPECT_EQ(counters.at("alice").rejected, 1);
  EXPECT_EQ(counters.at("alice").cancelled, 0);
  EXPECT_EQ(counters.at("bob").submitted, 1);
  EXPECT_EQ(counters.at("bob").cancelled, 1);
  queue.TakeCompleted();
}

}  // namespace
}  // namespace blazeit
