#ifndef BLAZEIT_NN_MATMUL_KERNELS_H_
#define BLAZEIT_NN_MATMUL_KERNELS_H_

#include <cstddef>

namespace blazeit {
namespace matmul {

/// Raw GEMM kernels behind nn/tensor.h's MatMul entry points, runtime-
/// dispatched across three ISA tiers — AVX-512 tiles, AVX2 tiles, and
/// portable scalar loops (see util/cpu_features.h) — and sharded across
/// the exec thread pool when the product is large enough to pay for it
/// (2^24 multiply-adds and two shards' worth of output: batched inference
/// shards, a 16-row training step's GEMMs stay serial). All matrices are
/// dense row-major float.
///
/// The SIMD tiers share one tile body per op (nn/matmul_tiles.inc:
/// `Rows` serves MatMul and MatMulTransposeA, which differ only in how a
/// row's coefficient is addressed; `TransposeBCols` serves
/// MatMulTransposeB), instantiated once per ISA over a small lane struct:
/// 4-row x 64-column tiles on AVX-512, 2-row x 32-column tiles on AVX2.
/// The scalar kernels stay hand-written; they are the parity reference.
///
/// Bit-exactness contract (for finite inputs): for every output cell,
/// contributions accumulate in ascending-k order with multiply and add
/// kept separate (no FMA, no reassociated/horizontal reductions), and the
/// SIMD tiles assign each cell to one vector lane, so the scalar, AVX2,
/// and AVX-512 paths produce identical bits — dispatch can never change
/// query outputs, only wall clock. The same argument covers pool
/// sharding: shards split the output range (rows, or columns for
/// TransposeB) at fixed boundaries independent of thread count, each cell
/// still accumulating in one lane in ascending-k order, so results are
/// identical at any BLAZEIT_THREADS. tests/tensor_test.cc pins
/// scalar/SIMD parity on every tier. The finite-input scope exists
/// because the scalar kernels skip exact-zero left-operand coefficients
/// per element while the blocked SIMD tiles skip per row group (4 rows at
/// AVX-512, 2 at AVX2) — for finite operands the extra signed-zero
/// contributions are bit-neutral (see the kernel comments), but an
/// Inf/NaN in `b` under a zero coefficient (already-diverged training)
/// can differ between paths.
///
/// MatMul and MatMulTransposeA accumulate: each cell's sum starts from
/// c's value, so a zero-initialized `c` yields the plain product and a
/// gradient buffer takes its contribution in place. The signed-zero
/// argument above needs c free of -0, which holds for zero-initialized
/// buffers and for anything these kernels wrote (a sum that starts at +0
/// never rounds to -0).

/// c[m,n] += a[m,k] * b[k,n].
void MatMul(const float* a, const float* b, float* c, int m, int k, int n);
void MatMulScalar(const float* a, const float* b, float* c, int m, int k,
                  int n);

/// c[m,n] += a[k,m]^T * b[k,n].
void MatMulTransposeA(const float* a, const float* b, float* c, int m, int k,
                      int n);
void MatMulTransposeAScalar(const float* a, const float* b, float* c, int m,
                            int k, int n);

/// c[m,n] = a[m,k] * b[n,k]^T. `c` may be uninitialized (every cell is a
/// full dot product and is stored exactly once).
void MatMulTransposeB(const float* a, const float* b, float* c, int m, int k,
                      int n);
void MatMulTransposeBScalar(const float* a, const float* b, float* c, int m,
                            int k, int n);

}  // namespace matmul
}  // namespace blazeit

#endif  // BLAZEIT_NN_MATMUL_KERNELS_H_
