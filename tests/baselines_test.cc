#include "core/baselines.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "testing/test_util.h"

namespace blazeit {
namespace {

class BaselinesTest : public testutil::CatalogFixture<BaselinesTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(3000, 2000, 6000); }
};

TEST_F(BaselinesTest, NaiveAggregateExactAndFullCost) {
  auto r = NaiveAggregate(stream_, kCar);
  const auto& counts = stream_->test_labels->Counts(kCar);
  double mean = 0;
  for (int c : counts) mean += c;
  mean /= counts.size();
  EXPECT_DOUBLE_EQ(r.estimate, mean);
  EXPECT_EQ(r.detection_calls, 6000);
}

TEST_F(BaselinesTest, OracleAggregateSameEstimateFewerCalls) {
  auto naive = NaiveAggregate(stream_, kCar);
  auto oracle = NoScopeOracleAggregate(stream_, kCar);
  EXPECT_DOUBLE_EQ(oracle.estimate, naive.estimate);
  // Calls = number of occupied frames.
  int64_t occupied = 0;
  for (int c : stream_->test_labels->Counts(kCar)) {
    if (c > 0) ++occupied;
  }
  EXPECT_EQ(oracle.detection_calls, occupied);
}

TEST_F(BaselinesTest, OracleAggregateOnAbsentClassIsFree) {
  auto r = NoScopeOracleAggregate(stream_, kBird);
  EXPECT_EQ(r.detection_calls, 0);
  EXPECT_DOUBLE_EQ(r.estimate, 0.0);
}

TEST_F(BaselinesTest, AqpSeedsGiveDifferentSamplesSameBallpark) {
  auto a = NaiveAqpAggregate(stream_, kCar, 0.1, 0.95, 1).value();
  auto b = NaiveAqpAggregate(stream_, kCar, 0.1, 0.95, 2).value();
  EXPECT_NE(a.estimate, b.estimate);  // different random draws
  EXPECT_NEAR(a.estimate, b.estimate, 0.4);
}

TEST_F(BaselinesTest, NaiveScrubStopsAtLimit) {
  auto r = NaiveScrub(stream_, {{kCar, 1}}, 3, 0);
  ASSERT_EQ(r.frames.size(), 3u);
  // Sequential scan: detections = index of the 3rd match + 1.
  EXPECT_EQ(r.detection_calls, r.frames.back() + 1);
}

TEST_F(BaselinesTest, OracleScrubSkipsAbsentFrames) {
  auto naive = NaiveScrub(stream_, {{kCar, 2}}, 5, 0);
  auto oracle = NoScopeOracleScrub(stream_, {{kCar, 2}}, 5, 0);
  EXPECT_EQ(oracle.frames, naive.frames);
  EXPECT_LT(oracle.detection_calls, naive.detection_calls);
}

TEST_F(BaselinesTest, ScrubGapEnforced) {
  auto r = NaiveScrub(stream_, {{kCar, 1}}, 4, 500);
  for (size_t i = 1; i < r.frames.size(); ++i) {
    EXPECT_GE(r.frames[i] - r.frames[i - 1], 500);
  }
}

TEST_F(BaselinesTest, ScrubImpossibleQueryExhausts) {
  auto r = NaiveScrub(stream_, {{kBird, 1}}, 1, 0);
  EXPECT_TRUE(r.frames.empty());
  EXPECT_FALSE(r.limit_satisfied);
  EXPECT_TRUE(r.scan_exhausted);
  EXPECT_EQ(r.detection_calls, 6000);
}

// Outputs pinned from the parent of the change that folded the baselines
// onto the engine's scan and plain-AQP bodies: the paper benches print
// these algorithms' numbers, so they must not move by a bit.
TEST_F(BaselinesTest, ScrubOutputsArePinned) {
  struct Golden {
    bool oracle;
    std::vector<ClassCountRequirement> reqs;
    int64_t limit;
    int64_t gap;
    std::vector<int64_t> frames;
    int64_t detection_calls;
    bool limit_satisfied;
    bool scan_exhausted;
  };
  const std::vector<int64_t> car2 = {610, 782, 882, 1140, 1258};
  const std::vector<int64_t> bus_car = {172,  504,  1159, 2502, 2927,
                                        3720, 4020, 4854, 5443};
  const std::vector<Golden> goldens = {
      {false, {{kCar, 2}}, 5, 100, car2, 863, true, false},
      {true, {{kCar, 2}}, 5, 100, car2, 363, true, false},
      {false, {{kBus, 1}, {kCar, 1}}, 1000, 300, bus_car, 3309, false, true},
      {true, {{kBus, 1}, {kCar, 1}}, 1000, 300, bus_car, 9, false, true},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(::testing::Message()
                 << (g.oracle ? "oracle" : "naive") << " limit " << g.limit);
    ScrubResult r = g.oracle ? NoScopeOracleScrub(stream_, g.reqs, g.limit,
                                                  g.gap)
                             : NaiveScrub(stream_, g.reqs, g.limit, g.gap);
    EXPECT_EQ(r.frames, g.frames);
    EXPECT_EQ(r.detection_calls, g.detection_calls);
    EXPECT_EQ(r.cost.detection_calls(), g.detection_calls);
    EXPECT_EQ(r.limit_satisfied, g.limit_satisfied);
    EXPECT_EQ(r.scan_exhausted, g.scan_exhausted);
  }
}

TEST_F(BaselinesTest, AqpOutputsArePinned) {
  struct Golden {
    int class_id;
    double error;
    double confidence;
    uint64_t seed;
    double estimate;
    int64_t samples;
  };
  const std::vector<Golden> goldens = {
      {kCar, 0.1, 0.95, 1, 0x1.f68a58af0097bp-1, 433},
      {kCar, 0.1, 0.95, 7, 0x1.0ff68a58af00bp+0, 433},
      {kBus, 0.05, 0.9, 3, 0x1.fbc4c2a50659p-4, 121},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(::testing::Message() << "class " << g.class_id << " seed "
                                      << g.seed);
    auto r = NaiveAqpAggregate(stream_, g.class_id, g.error, g.confidence,
                               g.seed);
    BLAZEIT_ASSERT_OK(r);
    EXPECT_EQ(std::memcmp(&r.value().estimate, &g.estimate, sizeof(double)),
              0)
        << r.value().estimate << " vs " << g.estimate;
    EXPECT_EQ(r.value().samples_used, g.samples);
    EXPECT_EQ(r.value().cost.detection_calls(), g.samples);
  }
}

}  // namespace
}  // namespace blazeit
