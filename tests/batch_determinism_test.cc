// The batch layer's headline contract, asserted end to end: ExecuteBatch
// is *byte-identical* to calling Execute serially per query — answers,
// matched frames, selection rows, and simulated costs — at pool sizes 1
// (pool disabled), 2, and 8, even though the batch shares one NN training
// run and one per-frame sweep across each shared-plan group. Also covers
// the batch bookkeeping itself (grouping, sharing stats, error slots).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

/// The batch mixes every executor kind, exercises shared-plan grouping
/// (three aggregates + two scrubbings collapse to one group each), and
/// includes a mid-batch failure.
const char* kBatchQueries[] = {
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.05 AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 20",
    "SELECT * FROM taipei WHERE class = 'bus' "
    "AND redness(content) >= 0.25 AND area(mask) > 20000 "
    "GROUP BY trackid HAVING COUNT(*) > 15",
    "SELECT timestamp FROM taipei WHERE class = 'bus' "
    "FNR WITHIN 0.01 FPR WITHIN 0.01",
    "SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 30",
    "SELEC oops",  // parse error must land in its slot, not fail the batch
    "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car' "
    "AND timestamp <= 60",
};

class BatchDeterminismTest
    : public testutil::CatalogFixture<BatchDeterminismTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(2000, 2000, 4000); }

 protected:
  static void SetUpTestSuite() {
    CatalogFixture::SetUpTestSuite();
    engine_ = new BlazeItEngine(catalog_, testutil::SmallEngineOptions());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    CatalogFixture::TearDownTestSuite();
  }
  void TearDown() override {
    exec::ThreadPool::Instance().Reconfigure(
        exec::ThreadPool::ThreadsFromEnv());
  }

  static void ExpectSameOutput(const QueryOutput& batch,
                               const QueryOutput& serial) {
    EXPECT_EQ(batch.kind, serial.kind);
    EXPECT_EQ(batch.plan, serial.plan);
    EXPECT_TRUE(BitsEqual(batch.scalar, serial.scalar));
    EXPECT_EQ(batch.frames, serial.frames);
    ASSERT_EQ(batch.rows.size(), serial.rows.size());
    for (size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(batch.rows[r].frame, serial.rows[r].frame);
      EXPECT_EQ(batch.rows[r].detection.class_id,
                serial.rows[r].detection.class_id);
      EXPECT_TRUE(BitsEqual(batch.rows[r].detection.score,
                            serial.rows[r].detection.score));
      EXPECT_EQ(batch.rows[r].detection.features,
                serial.rows[r].detection.features);
    }
    EXPECT_EQ(batch.cost.detection_calls(), serial.cost.detection_calls());
    EXPECT_EQ(batch.cost.specialized_nn_calls(),
              serial.cost.specialized_nn_calls());
    EXPECT_EQ(batch.cost.filter_calls(), serial.cost.filter_calls());
    EXPECT_EQ(batch.cost.training_frames(), serial.cost.training_frames());
    EXPECT_TRUE(
        BitsEqual(batch.cost.TotalSeconds(), serial.cost.TotalSeconds()));
    EXPECT_TRUE(
        BitsEqual(batch.cost.QuerySeconds(), serial.cost.QuerySeconds()));
    EXPECT_EQ(batch.plan_description, serial.plan_description);
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* BatchDeterminismTest::engine_ = nullptr;

TEST_F(BatchDeterminismTest, BatchMatchesSerialExecuteAtEveryPoolSize) {
  const std::vector<std::string> queries(std::begin(kBatchQueries),
                                         std::end(kBatchQueries));

  // Serial reference, computed once (Execute itself is thread-count
  // invariant per parallel_determinism_test).
  std::vector<Result<QueryOutput>> serial;
  for (const std::string& q : queries) serial.push_back(engine_->Execute(q));

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ThreadPool::Instance().Reconfigure(threads);
    auto batch = engine_->ExecuteBatch(queries);
    BLAZEIT_ASSERT_OK(batch);
    const BatchOutput& out = batch.value();
    ASSERT_EQ(out.results.size(), queries.size());
    ASSERT_EQ(out.stats.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query[" + std::to_string(i) + "]: " + queries[i]);
      ASSERT_EQ(out.results[i].ok(), serial[i].ok());
      if (!serial[i].ok()) {
        EXPECT_EQ(out.results[i].status(), serial[i].status());
        continue;
      }
      ExpectSameOutput(out.results[i].value(), serial[i].value());
    }
  }
}

TEST_F(BatchDeterminismTest, SharedPlanGroupingCollapsesSameSweepQueries) {
  const std::vector<std::string> queries(std::begin(kBatchQueries),
                                         std::end(kBatchQueries));
  auto batch = engine_->ExecuteBatch(queries);
  BLAZEIT_ASSERT_OK(batch);
  const BatchOutput& out = batch.value();

  // 3 aggregates -> 1 group, 2 scrubbings -> 1 group, selection, binary
  // select, exhaustive, count-distinct -> 1 each (the parse error gets no
  // group).
  EXPECT_EQ(out.groups, 6);
  EXPECT_EQ(out.stats[0].group, out.stats[1].group);
  EXPECT_EQ(out.stats[0].group, out.stats[2].group);
  EXPECT_EQ(out.stats[3].group, out.stats[4].group);
  EXPECT_NE(out.stats[0].group, out.stats[3].group);

  // Followers of a shared-plan group reuse the leader's trained model and
  // per-frame sweep: the batch charges NN cost for ~one sweep, not N.
  EXPECT_EQ(out.stats[0].shared_models, 0);  // leader trains
  EXPECT_EQ(out.stats[1].shared_models, 1);
  EXPECT_EQ(out.stats[2].shared_models, 1);
  EXPECT_GT(out.stats[1].shared_nn_frames, 0);
  EXPECT_GT(out.stats[2].shared_nn_frames, 0);
  EXPECT_EQ(out.stats[4].shared_models, 1);
  EXPECT_GT(out.stats[4].shared_nn_frames, 0);

  // Savings surface in the batch accounting, never in per-query meters.
  EXPECT_GT(out.standalone_seconds, out.batch_seconds);
  EXPECT_LT(out.stats[1].batch_seconds, out.stats[1].standalone_seconds);
  // The follower aggregate's entire NN bill (training + held-out + test
  // sweeps) is absorbed; what remains is its detector sampling.
  const CostMeter& follower = out.results[1].value().cost;
  EXPECT_LT(out.stats[1].batch_seconds,
            follower.TotalSeconds() - follower.training_seconds());
}

TEST_F(BatchDeterminismTest, EmptyBatchIsOk) {
  auto batch = engine_->ExecuteBatch({});
  BLAZEIT_ASSERT_OK(batch);
  EXPECT_TRUE(batch.value().results.empty());
  EXPECT_EQ(batch.value().groups, 0);
}

}  // namespace
}  // namespace blazeit
