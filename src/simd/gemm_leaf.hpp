// Packed-panel routing for D-kind leaves.
//
// A D-kind box updates a tile disjoint from its u/v/w inputs, so the
// k-i-j leaf loop is a pure rank-m update over its semiring and can run
// through the BLIS-style packed micro-kernel (simd/microkernel.hpp)
// instead of the strided row sweep. The B panel (v) is packed once per
// k-chunk and reused across every A row panel — the "B-panel reuse
// across the k-sweep" that makes the leaf compute-bound.
//
// gep/kernels.hpp routes here only for boxes of nominal side
// m >= gemm_min_m(); below that the packing overhead loses to the plain
// vectorized sweep. The threshold depends only on m, never on a clipped
// edge box's extents, so a run's numeric path is deterministic and an
// edge box packs exactly as it would inside the matrix.
//
// Every entry point takes the box's extents: x is mi x mj and the
// k-range mk (u is mi x mk, v mk x mj). gemm_tile[_scaled] take the
// whole LeafDims, since the Strassen layer is routed on the side m too.
#pragma once

#include <cstdint>

#include "matrix/matrix.hpp"

namespace gep::simd {

// Default minimum tile edge for packed-GEMM routing (see
// docs/KERNELS.md). The effective threshold is gemm_min_m().
inline constexpr index_t kGemmMinM = 16;

// Effective packed-GEMM threshold: $GEP_GEMM_MIN_M if set, else
// kGemmMinM. Read once per process (defined in strassen.cpp alongside
// the Strassen routing knobs — both thresholds share one mechanism).
index_t gemm_min_m();

// x(row stride sx) += alpha * u(su) * v(sv). x must not alias u or v
// (D-kind contract). alpha = +1 serves kernel_mm leaves, alpha = -1 the
// D-kind LU schur update.
void gemm_tile(double* x, const double* u, const double* v, LeafDims d,
               index_t sx, index_t su, index_t sv, double alpha);
void gemm_tile(float* x, const float* u, const float* v, LeafDims d,
               index_t sx, index_t su, index_t sv, float alpha);

// D-kind GE leaf: x -= (u[i][k] / w[k][k]) * v. The
// division folds into A-panel packing (pack_a_scaled) with exactly the
// scalar kernel's operands and rounding. w is strided by sw; x must not
// alias u, v, or w.
void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, LeafDims d, index_t sx, index_t su,
                      index_t sv, index_t sw);
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, LeafDims d, index_t sx, index_t su,
                      index_t sv, index_t sw);

// D-kind semiring leaf: x (+)= u (x) v over SR, bit-identical to
// G's k-i-j order (see the semirings in simd/microkernel.hpp). Defined
// for MinPlus and MaxMin over double and float and OrAnd over bytes; x
// must not alias u or v. Callers must have checked active() >= Avx2.
template <template <class> class SR, class T>
void semiring_tile(T* x, const T* u, const T* v, index_t mi, index_t mj,
                   index_t mk, index_t sx, index_t su, index_t sv);

}  // namespace gep::simd
