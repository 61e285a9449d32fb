#include "nn/matmul_kernels.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BLAZEIT_X86_64 1
#endif

#include "exec/parallel_for.h"
#include "util/cpu_features.h"

namespace blazeit {
namespace matmul {

// All kernels are written over a *range* of the output — rows [i0, i1)
// for MatMul / MatMulTransposeA, columns [j0, j1) for MatMulTransposeB —
// so the dispatchers can shard one GEMM across the exec thread pool.
// Range boundaries never change per-cell arithmetic: every output cell
// still accumulates its k-contributions in ascending order in one lane,
// so a sharded product is bit-identical to the single-range call (the
// blocked kernels' group-of-rows zero-skip differs at shard boundaries,
// but as documented in the header, skipped-vs-added signed zeros are
// bit-neutral for finite inputs). Shard sizes are fixed constants —
// independent of thread count — and large GEMMs are *always* decomposed
// (inline and in order when the pool is serial), so even the
// non-finite-input edge cannot vary with BLAZEIT_THREADS.

namespace {

/// Minimum multiply-add count before a GEMM is worth sharding across the
/// pool. A training step's GEMMs (16 x 4096 x 64 = 2^22 at the default
/// specialized-NN shape) sit below it: at that size each shard is a few
/// microseconds of math, and waking the pool twice per SGD step cost more
/// than it saved. Batched inference (256 x 4096 x 64 = 2^26) shards.
constexpr int64_t kParallelFlops = int64_t{1} << 24;
/// Rows per shard (multiple of the 4-row kernel blocks).
constexpr int kRowShard = 32;
/// Columns per shard for MatMulTransposeB (multiple of the 16-wide tile).
constexpr int kColShard = 64;

bool WorthSharding(int m, int k, int n, int span, int shard) {
  return static_cast<int64_t>(m) * k * n >= kParallelFlops &&
         span >= 2 * shard;
}

// ---------------------------------------------------------------------------
// Scalar kernels: saxpy-style inner loops that the autovectorizer handles
// at -O2, with an exact-zero skip that pays off on ReLU activations.
// ---------------------------------------------------------------------------

void MatMulScalarRows(const float* a, const float* b, float* c, int k, int n,
                      int i0, int i1) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeAScalarRows(const float* a, const float* b, float* c,
                                int m, int k, int n, int i0, int i1) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeBScalarCols(const float* a, const float* b, float* c,
                                int m, int k, int n, int j0, int j1) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) sum += arow[p] * brow[p];
      crow[j] = sum;
    }
  }
}

}  // namespace

void MatMulScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  MatMulScalarRows(a, b, c, k, n, 0, m);
}

void MatMulTransposeAScalar(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  MatMulTransposeAScalarRows(a, b, c, m, k, n, 0, m);
}

void MatMulTransposeBScalar(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  MatMulTransposeBScalarCols(a, b, c, m, k, n, 0, n);
}

// ---------------------------------------------------------------------------
// SIMD tiers: nn/matmul_tiles.inc instantiated once per ISA inside that
// ISA's target-pragma region (one template across regions cannot inline
// the target-specific lane ops): 4-row x 64-column tiles on AVX-512, 2-row
// x 32-column tiles on AVX2, each tier keeping its own zero-skip rows.
// ---------------------------------------------------------------------------

#ifdef BLAZEIT_X86_64

// GCC 12's maskz load/store intrinsics expand through an uninitialized
// placeholder vector and trip a false -Wmaybe-uninitialized at -O2 (the
// masked lanes are well-defined zeros); silence it for the tiers only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f,avx512dq"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
#endif

namespace avx512 {

struct Lanes {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kWidth = 16;
  static constexpr int kRows = 4;
  static Mask FirstLanes(int live) {
    return static_cast<Mask>((1u << std::clamp(live, 0, kWidth)) - 1u);
  }
  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Splat(float v) { return _mm512_set1_ps(v); }
  static Vec Load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static Vec LoadAll(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Mask m, Vec v) { _mm512_mask_storeu_ps(p, m, v); }
  static Vec MulAdd(Vec acc, Vec w, Vec x) {
    return _mm512_add_ps(acc, _mm512_mul_ps(w, x));
  }
};

#include "nn/matmul_tiles.inc"

}  // namespace avx512

#if defined(__clang__)
#pragma clang attribute pop
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

namespace avx2 {

struct Lanes {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int kWidth = 8;
  static constexpr int kRows = 2;
  /// All-ones in lanes [0, live): the compare clamps out-of-range counts.
  static Mask FirstLanes(int live) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Splat(float v) { return _mm256_set1_ps(v); }
  static Vec Load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static Vec LoadAll(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Mask m, Vec v) { _mm256_maskstore_ps(p, m, v); }
  static Vec MulAdd(Vec acc, Vec w, Vec x) {
    return _mm256_add_ps(acc, _mm256_mul_ps(w, x));
  }
};

#include "nn/matmul_tiles.inc"

}  // namespace avx2

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

}  // namespace

#pragma GCC diagnostic pop

#endif  // BLAZEIT_X86_64

// ---------------------------------------------------------------------------
// Dispatchers: pick the widest available ISA tier, then shard the range
// across the exec pool when the GEMM is big enough to pay for it.
// ---------------------------------------------------------------------------

namespace {

/// Runs `range_fn(r0, r1)` over [0, span) — sharded (always, for
/// decomposition stability) when the problem is large, single-range
/// otherwise. One gate for all three dispatchers so the sharding policy
/// can never drift between them.
template <typename RangeFn>
void DispatchRange(int m, int k, int n, int span, int shard,
                   const RangeFn& range_fn) {
  if (!WorthSharding(m, k, n, span, shard)) {
    range_fn(0, span);
    return;
  }
  exec::ParallelFor(span, shard,
                    [&](int64_t begin, int64_t end, int /*slot*/) {
                      range_fn(static_cast<int>(begin),
                               static_cast<int>(end));
                    });
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int m, int k, int n) {
  DispatchRange(m, k, n, m, kRowShard, [&](int i0, int i1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) return avx512::Rows(a, k, 1, b, c, k, n, i0, i1);
    if (CpuHasAvx2()) return avx2::Rows(a, k, 1, b, c, k, n, i0, i1);
#endif
    MatMulScalarRows(a, b, c, k, n, i0, i1);
  });
}

void MatMulTransposeA(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  DispatchRange(m, k, n, m, kRowShard, [&](int i0, int i1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) return avx512::Rows(a, 1, m, b, c, k, n, i0, i1);
    if (CpuHasAvx2()) return avx2::Rows(a, 1, m, b, c, k, n, i0, i1);
#endif
    MatMulTransposeAScalarRows(a, b, c, m, k, n, i0, i1);
  });
}

void MatMulTransposeB(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  // Sharded over *columns*: each column group packs its own transposed
  // tile of b, so column shards duplicate no packing work (row shards
  // would re-pack every tile per shard).
  DispatchRange(m, k, n, n, kColShard, [&](int j0, int j1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) return avx512::TransposeBCols(a, b, c, m, k, n, j0, j1);
    if (CpuHasAvx2()) return avx2::TransposeBCols(a, b, c, m, k, n, j0, j1);
#endif
    MatMulTransposeBScalarCols(a, b, c, m, k, n, j0, j1);
  });
}

}  // namespace matmul
}  // namespace blazeit
