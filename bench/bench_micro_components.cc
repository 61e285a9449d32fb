// Micro-benchmarks (google-benchmark) for the per-frame building blocks:
// rendering, feature extraction, specialized-NN inference, filters, and the
// simulated detector. These are the wall-clock costs of the simulator; the
// *modeled* costs used in the experiment harnesses come from sim/cost_model.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/labeled_set.h"
#include "core/udf.h"
#include "detect/simulated_detector.h"
#include "exec/frame_pipeline.h"
#include "exec/thread_pool.h"
#include "nn/specialized_nn.h"
#include "nn/tensor.h"
#include "stats/control_variates.h"
#include "stats/sampler.h"
#include "util/random.h"
#include "video/datasets.h"
#include "video/render_features.h"

namespace blazeit {
namespace {

const SyntheticVideo& Video() {
  static auto video =
      SyntheticVideo::Create(TaipeiConfig(), 1, 36000).value().release();
  return *video;
}

void BM_RenderFrame(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Video().RenderFrame(frame++ % 36000, 64, 64));
  }
}
BENCHMARK(BM_RenderFrame);

void BM_FrameFeatures(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FrameFeatures(Video(), frame++ % 36000, 32, 32));
  }
}
BENCHMARK(BM_FrameFeatures);

void BM_SimulatedDetector(benchmark::State& state) {
  SimulatedDetector det;
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(Video(), frame++ % 36000));
  }
}
BENCHMARK(BM_SimulatedDetector);

void BM_GroundTruth(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Video().GroundTruth(frame++ % 36000));
  }
}
BENCHMARK(BM_GroundTruth);

void BM_RednessUdf(benchmark::State& state) {
  Image img = Video().RenderFrame(0, 64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UdfRegistry::Redness(img));
  }
}
BENCHMARK(BM_RednessUdf);

void BM_SpecializedNNInference(benchmark::State& state) {
  static SpecializedNN* nn = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    SpecializedNNConfig cfg;
    cfg.max_train_frames = 4000;
    return new SpecializedNN(
        SpecializedNN::Train(Video(), {labels.Counts(kCar)}, cfg).value());
  }();
  const int batch = static_cast<int>(state.range(0));
  std::vector<int64_t> frames(static_cast<size_t>(batch));
  std::iota(frames.begin(), frames.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn->ExpectedCountsForFrames(Video(), frames));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpecializedNNInference)->Arg(1)->Arg(64)->Arg(256);

// GEMM kernels at the specialized-NN shapes: the trunk forward pass
// dominates batched inference ([batch, w*h*4] x [w*h*4, hidden]); the
// transpose variants are the weight/input gradients of training. ReLU-like
// sparsity is deliberately absent (features are dense), making these the
// worst-case kernel cost.
Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng->Normal(0.0, 1.0));
  return m;
}

void BM_MatMul(benchmark::State& state) {
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 256, 4096);
  Matrix b = RandomMatrix(&rng, 4096, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMul);

void BM_MatMulTransposeA(benchmark::State& state) {
  Rng rng(2);
  Matrix a = RandomMatrix(&rng, 256, 4096);  // cached input (batch-major)
  Matrix g = RandomMatrix(&rng, 256, 64);    // upstream gradient
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeA(a, g));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMulTransposeA);

void BM_MatMulTransposeB(benchmark::State& state) {
  Rng rng(3);
  Matrix g = RandomMatrix(&rng, 256, 64);    // upstream gradient
  Matrix w = RandomMatrix(&rng, 4096, 64);   // layer weights
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeB(g, w));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMulTransposeB);

// ---------------------------------------------------------------------------
// Thread-count axes: the sharded frame pipeline, batched NN inference and
// cold NN training at several pool sizes. On a multi-core machine these
// are the scaling benches (expect near-linear on the render-bound sweep);
// on a single core they pin the overhead of the sharding machinery at
// ~zero. Outputs are bit-identical across the axis — only wall clock may
// move.
// ---------------------------------------------------------------------------

void BM_FrameFeaturesBatchThreads(benchmark::State& state) {
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 1024;
  constexpr int kGrid = 32;
  constexpr size_t kRow = static_cast<size_t>(kGrid) * kGrid * 4;
  std::vector<float> features(kBatch * kRow);
  for (auto _ : state) {
    exec::FramePipeline::Run(
        kBatch, 64,
        [&](int64_t begin, int64_t end, exec::FramePipeline::Scratch* s) {
          for (int64_t i = begin; i < end; ++i) {
            RenderFrameFeatures(Video(), i % 36000, kGrid, kGrid,
                                features.data() + static_cast<size_t>(i) * kRow,
                                &s->image);
          }
        });
    benchmark::DoNotOptimize(features.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_FrameFeaturesBatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SpecializedNNInferenceThreads(benchmark::State& state) {
  static SpecializedNN* nn = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    SpecializedNNConfig cfg;
    cfg.max_train_frames = 4000;
    return new SpecializedNN(
        SpecializedNN::Train(Video(), {labels.Counts(kCar)}, cfg).value());
  }();
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 2048;
  std::vector<int64_t> frames(static_cast<size_t>(kBatch));
  std::iota(frames.begin(), frames.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn->ExpectedCountsForFrames(Video(), frames));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_SpecializedNNInferenceThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One cold SpecializedNN::Train at the default shape (32x32 raster, 64
// hidden units, batch 16, one epoch) on 6000 frames of the day, the size
// of a cold engine query's training day: block-rendered rows on the pool,
// then the serial SGD steps. Nothing is cached, so every iteration trains.
void BM_SpecializedNNTrain(benchmark::State& state) {
  static const std::vector<int>* car_counts = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    return new std::vector<int>(labels.Counts(kCar));
  }();
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  SpecializedNNConfig cfg;
  cfg.max_train_frames = 6000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SpecializedNN::Train(Video(), {*car_counts}, cfg).value());
  }
  state.SetItemsProcessed(state.iterations() * cfg.max_train_frames);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_SpecializedNNTrain)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MatMulThreads(benchmark::State& state) {
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 256, 4096);
  Matrix b = RandomMatrix(&rng, 4096, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AdaptiveSampler(benchmark::State& state) {
  // Sampler loop cost on a pre-computed array (no detector in the loop).
  std::vector<double> values(100000);
  Rng rng(3);
  for (auto& v : values) v = rng.Poisson(1.0);
  for (auto _ : state) {
    SamplingConfig cfg;
    cfg.error = 0.05;
    cfg.value_range = 8;
    cfg.seed = 1;
    benchmark::DoNotOptimize(AdaptiveSample(
        100000,
        [&](int64_t f) { return values[static_cast<size_t>(f)]; }, cfg));
  }
}
BENCHMARK(BM_AdaptiveSampler);

}  // namespace
}  // namespace blazeit

BENCHMARK_MAIN();
