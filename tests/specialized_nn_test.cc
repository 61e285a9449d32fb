#include "nn/specialized_nn.h"

#include <gtest/gtest.h>

#include "testing/map_cache.h"
#include "testing/test_util.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "core/labeled_set.h"
#include "detect/simulated_detector.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "stats/online_stats.h"
#include "video/datasets.h"
#include "video/render_features.h"

namespace blazeit {
namespace {

TEST(ChooseNumClassesTest, PaperRule) {
  // 1% of the video contains 3 cars -> 4 classes (paper's example).
  std::vector<int> counts;
  for (int i = 0; i < 97; ++i) counts.push_back(0);
  for (int i = 0; i < 2; ++i) counts.push_back(1);
  counts.push_back(3);  // exactly 1%
  EXPECT_EQ(ChooseNumClasses(counts, 0.01), 4);
}

TEST(ChooseNumClassesTest, RareTailExcluded) {
  std::vector<int> counts(1000, 0);
  counts[0] = 5;  // 0.1% of frames
  for (int i = 1; i < 200; ++i) counts[i] = 1;
  EXPECT_EQ(ChooseNumClasses(counts, 0.01), 2);  // classes {0,1}
}

TEST(ChooseNumClassesTest, EmptyAndAllZero) {
  EXPECT_EQ(ChooseNumClasses({}), 1);
  EXPECT_EQ(ChooseNumClasses(std::vector<int>(100, 0)), 1);
}

// Independent reference for the pooled-feature math: the historical
// FrameFeatures loop from nn/specialized_nn.cc as it existed before the
// fused render_features kernel replaced it. RenderFrameFeatures must match
// this bit-for-bit — cached per-frame NN artifacts were NOT epoch-bumped
// across the fusion, so the fused path inherits the old math as its spec.
std::vector<float> RefFrameFeatures(const SyntheticVideo& video,
                                    int64_t frame, int width, int height) {
  constexpr int kPool = 2;
  constexpr float kMean = 0.45f;
  constexpr float kStd = 0.22f;
  Image img = video.RenderFrame(frame, width * kPool, height * kPool);
  const double mean_r = img.MeanChannel(0);
  const double mean_g = img.MeanChannel(1);
  const double mean_b = img.MeanChannel(2);
  std::vector<float> features;
  features.reserve(static_cast<size_t>(width) * height * 4);
  for (int cy = 0; cy < height; ++cy) {
    for (int cx = 0; cx < width; ++cx) {
      double r = 0, g = 0, b = 0, dev = 0;
      for (int dy = 0; dy < kPool; ++dy) {
        for (int dx = 0; dx < kPool; ++dx) {
          int x = cx * kPool + dx;
          int y = cy * kPool + dy;
          double pr = img.At(x, y, 0);
          double pg = img.At(x, y, 1);
          double pb = img.At(x, y, 2);
          r += pr;
          g += pg;
          b += pb;
          dev += std::abs(pr - mean_r) + std::abs(pg - mean_g) +
                 std::abs(pb - mean_b);
        }
      }
      const double inv = 1.0 / (kPool * kPool);
      features.push_back(
          static_cast<float>(((static_cast<double>(r) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(
          static_cast<float>(((static_cast<double>(g) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(
          static_cast<float>(((static_cast<double>(b) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(static_cast<float>((dev * inv - 0.1) / 0.3));
    }
  }
  return features;
}

TEST(FrameFeaturesTest, FusedPathMatchesHistoricalReference) {
  // Non-square grids exercise the fused kernel's row strides; sizes whose
  // render is not a power of two pixels exercise the channel-mean
  // division.
  auto video = SyntheticVideo::Create(TaipeiConfig(), 1, 200).value();
  Image scratch;
  for (auto [w, h] : {std::pair{16, 16}, {12, 20}, {7, 3}}) {
    std::vector<float> row(static_cast<size_t>(w) * h * kFeatureChannels);
    for (int64_t frame : {0, 63, 199}) {
      std::vector<float> want = RefFrameFeatures(*video, frame, w, h);
      RenderFrameFeatures(*video, frame, w, h, row.data(), &scratch);
      ASSERT_EQ(want.size(), row.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i], row[i])
            << w << "x" << h << " frame " << frame << " index " << i;
      }
    }
  }
}

TEST(FrameFeaturesTest, FusedRowPathMatchesVectorPath) {
  // The batch loops render features straight into the NN input row via
  // RenderFrameFeatures with a reused scratch Image; bits must match the
  // vector-returning FrameFeatures wrapper exactly.
  auto video = SyntheticVideo::Create(TaipeiConfig(), 1, 200).value();
  Image scratch;
  std::vector<float> row(16 * 16 * kFeatureChannels);
  for (int64_t frame : {0, 7, 63, 199}) {
    std::vector<float> want = FrameFeatures(*video, frame, 16, 16);
    RenderFrameFeatures(*video, frame, 16, 16, row.data(), &scratch);
    ASSERT_EQ(want.size(), row.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], row[i]) << "frame " << frame << " index " << i;
    }
  }
}

TEST(FrameFeaturesTest, SizeAndDeterminism) {
  auto video = SyntheticVideo::Create(TaipeiConfig(), 1, 100).value();
  auto a = FrameFeatures(*video, 10, 16, 16);
  auto b = FrameFeatures(*video, 10, 16, 16);
  EXPECT_EQ(a.size(), 16u * 16u * 4u);  // RGB + deviation channel per cell
  EXPECT_EQ(a, b);
  auto c = FrameFeatures(*video, 11, 16, 16);
  EXPECT_NE(a, c);
}

class SpecializedNNTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = SyntheticVideo::Create(TaipeiConfig(), 101, 6000).value();
    detector_ = std::make_unique<SimulatedDetector>();
    labels_ = std::make_unique<LabeledSet>(video_.get(), detector_.get(), 0.5);
  }
  SpecializedNNConfig FastConfig() {
    SpecializedNNConfig cfg;
    cfg.raster_width = 16;
    cfg.raster_height = 16;
    cfg.hidden_dims = {32};
    cfg.max_train_frames = 6000;
    return cfg;
  }
  std::unique_ptr<SyntheticVideo> video_;
  std::unique_ptr<SimulatedDetector> detector_;
  std::unique_ptr<LabeledSet> labels_;
};

TEST_F(SpecializedNNTest, TrainRejectsBadInputs) {
  EXPECT_FALSE(SpecializedNN::Train(*video_, {}, FastConfig()).ok());
  EXPECT_FALSE(SpecializedNN::Train(*video_, {{}}, FastConfig()).ok());
  // Mismatched head lengths.
  EXPECT_FALSE(
      SpecializedNN::Train(*video_, {{0, 1}, {0}}, FastConfig()).ok());
}

TEST_F(SpecializedNNTest, SingleHeadShapes) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig());
  BLAZEIT_ASSERT_OK(nn);
  EXPECT_EQ(nn.value().num_heads(), 1);
  EXPECT_GE(nn.value().head_classes(0), 2);
  auto probs = nn.value().PredictProbs(*video_, 0);
  ASSERT_EQ(probs.size(), 1u);
  double sum = 0;
  for (float p : probs[0]) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST_F(SpecializedNNTest, LearnsCorrelatedCounts) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig())
          .value();
  OnlineCovariance cov;
  const auto& truth = labels_->Counts(kCar);
  std::vector<int64_t> frames(3000);
  std::iota(frames.begin(), frames.end(), 0);
  auto pred = nn.ExpectedCountsForFrames(*video_, frames);
  for (size_t i = 0; i < pred.size(); ++i) cov.Add(pred[i], truth[i]);
  // Training-set correlation must be clearly positive.
  EXPECT_GT(cov.Correlation(), 0.3);
}

TEST_F(SpecializedNNTest, BatchMatchesPerFrame) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig())
          .value();
  std::vector<int64_t> frames = {0, 17, 333, 999};
  auto batch = nn.ExpectedCountsForFrames(*video_, frames);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_NEAR(batch[i], nn.ExpectedCount(*video_, frames[i]), 1e-4);
  }
  auto conf_batch = nn.QueryConfidencesForFrames(*video_, frames, {1});
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_NEAR(conf_batch[i], nn.QueryConfidence(*video_, frames[i], {1}),
                1e-4);
  }
}

TEST_F(SpecializedNNTest, MultiHeadSeparateConfidences) {
  auto nn = SpecializedNN::Train(
                *video_, {labels_->Counts(kCar), labels_->Counts(kBus)},
                FastConfig())
                .value();
  EXPECT_EQ(nn.num_heads(), 2);
  auto probs = nn.PredictProbs(*video_, 5);
  EXPECT_EQ(probs.size(), 2u);
  // Sum mode adds the per-head tails (paper's signal); bounded by #heads.
  double conf = nn.QueryConfidence(*video_, 5, {1, 1});
  EXPECT_GE(conf, 0.0);
  EXPECT_LE(conf, 2.0 + 1e-6);
}

TEST_F(SpecializedNNTest, ProductModeBoundedByOne) {
  auto nn = SpecializedNN::Train(
                *video_, {labels_->Counts(kCar), labels_->Counts(kBus)},
                FastConfig())
                .value();
  std::vector<int64_t> frames = {0, 100, 200};
  auto prod = nn.QueryConfidencesForFrames(
      *video_, frames, {1, 1}, SpecializedNN::ConjunctionMode::kProduct);
  auto sum = nn.QueryConfidencesForFrames(
      *video_, frames, {1, 1}, SpecializedNN::ConjunctionMode::kSum);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_LE(prod[i], 1.0f + 1e-6);
    EXPECT_LE(prod[i], sum[i] + 1e-6);
  }
}

TEST_F(SpecializedNNTest, ExpectedCountWithinClassRange) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig())
          .value();
  for (int64_t t : {0, 50, 500}) {
    double e = nn.ExpectedCount(*video_, t);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, nn.head_classes(0) - 1.0);
  }
}

TEST_F(SpecializedNNTest, TrainedFramesAccountsEpochs) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.train.epochs = 2;
  cfg.max_train_frames = 1000;
  auto nn = SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg);
  BLAZEIT_ASSERT_OK(nn);
  EXPECT_EQ(nn.value().trained_frames(), 2000);
}

TEST_F(SpecializedNNTest, MinClassesExpandsHead) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.min_classes = 4;
  auto nn = SpecializedNN::Train(*video_, {labels_->Counts(kBus)}, cfg);
  BLAZEIT_ASSERT_OK(nn);
  // Bus counts are mostly 0/1; 1% rule would give ~2 classes, min_classes
  // raises it (capped by max observed + 1).
  EXPECT_GE(nn.value().head_classes(0), 2);
}

// Cold training is pinned bit for bit: the weight blob of a fixed-seed
// model with two trunk layers and two heads hashes to the digest its
// trainer produced while every layer still drew its He init at
// construction. Deferring those draws until the weight cache has missed
// must keep both the init order (trunk layers, then heads) and the RNG
// stream the epoch shuffles continue from.
TEST_F(SpecializedNNTest, ColdTrainingWeightsMatchGolden) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.hidden_dims = {32, 16};
  cfg.max_train_frames = 1500;
  cfg.train.seed = 7;
  testutil::MapCache cache;
  cfg.cache = &cache;
  BLAZEIT_ASSERT_OK(SpecializedNN::Train(
      *video_, {labels_->Counts(kCar), labels_->Counts(kBus)}, cfg));
  ASSERT_EQ(cache.blobs().size(), 1u);
  const std::vector<float>& blob = cache.blobs().begin()->second;
  EXPECT_EQ(blob.size(), 33447u);
  EXPECT_EQ(Fingerprint().MixRange(blob).value(), 0x4fab05dfcf2dc441ull);
}

// The default shape (32x32 raster, 64 hidden units, batch 16) is the one
// engine queries train, and its step GEMMs are the largest a training
// step makes: pinned at a serial and a 4-thread pool, so neither how the
// training rows are rendered nor whether a GEMM shards can move a bit.
TEST_F(SpecializedNNTest, DefaultShapeColdTrainingMatchesGoldenAtAnyPoolSize) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    exec::ThreadPool::Instance().Reconfigure(threads);
    SpecializedNNConfig cfg;
    testutil::MapCache cache;
    cfg.cache = &cache;
    BLAZEIT_ASSERT_OK(
        SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg));
    ASSERT_EQ(cache.blobs().size(), 1u);
    const std::vector<float>& blob = cache.blobs().begin()->second;
    EXPECT_EQ(blob.size(), 262533u);  // 4096x64 trunk, 5-class car head
    EXPECT_EQ(Fingerprint().MixRange(blob).value(), 0x58234c3687345193ull);
  }
  exec::ThreadPool::Instance().Reconfigure(
      exec::ThreadPool::ThreadsFromEnv());
}

// A cached weight blob yields the cold model exactly: loading it skips
// training (and the init draws) yet inference is bit-identical.
TEST_F(SpecializedNNTest, WarmWeightHitMatchesColdModelBitForBit) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.max_train_frames = 1500;
  testutil::MapCache cold_cache;
  cfg.cache = &cold_cache;
  auto cold = SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg);
  BLAZEIT_ASSERT_OK(cold);

  // Only the blob carries over, so the warm model's inference cannot
  // replay the cold model's cached rows: it runs on the loaded weights.
  testutil::MapCache weights_only;
  for (const auto& [ns, blob] : cold_cache.blobs()) {
    weights_only.PutBlob(ns, blob);
  }
  cfg.cache = &weights_only;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* weight_hits =
      metrics.GetCounter("nn.weights_cache_hits", obs::Stability::kStable);
  obs::Counter* train_batches =
      metrics.GetCounter("nn.train_batches", obs::Stability::kStable);
  const int64_t hits_before = weight_hits->value();
  const int64_t batches_before = train_batches->value();
  auto warm = SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg);
  BLAZEIT_ASSERT_OK(warm);
  EXPECT_EQ(weight_hits->value() - hits_before, 1);
  EXPECT_EQ(train_batches->value() - batches_before, 0);
  EXPECT_EQ(warm.value().trained_frames(), cold.value().trained_frames());

  std::vector<int64_t> frames(400);
  std::iota(frames.begin(), frames.end(), 0);
  EXPECT_EQ(warm.value().ExpectedCountsForFrames(*video_, frames),
            cold.value().ExpectedCountsForFrames(*video_, frames));
  EXPECT_EQ(warm.value().QueryConfidencesForFrames(*video_, frames, {1}),
            cold.value().QueryConfidencesForFrames(*video_, frames, {1}));
  for (int64_t frame : {0, 7, 123, 399}) {
    EXPECT_EQ(warm.value().PredictProbs(*video_, frame),
              cold.value().PredictProbs(*video_, frame));
  }
}

}  // namespace
}  // namespace blazeit
