// Explicit AVX2/FMA base-case kernels (declarations).
//
// Definitions live in kernels_avx2.cpp, compiled with
// `__attribute__((target("avx2,fma")))` so the library builds — and the
// scalar path stays runnable — without any -march flags; callers must
// check simd::active() >= Level::Avx2 (gep/kernels.hpp wrappers do)
// before invoking. The semiring micro-kernels, which every packed leaf
// (GEMM, min-plus, max-min, or-and) runs, are declared in
// simd/microkernel.hpp. Argument conventions (x/u/v/w, strides, diag
// flags, mi x mj x mk extents) match the scalar templates in
// gep/kernels.hpp exactly; every row sweep's column tail runs the same
// fused op as its vector body, so a column keeps its bits whatever its
// offset from the edge. These
// FMA kernels (ge, lu, mm) are tolerance-equivalent to them and
// deterministic run-to-run. None of these use `restrict` across
// x/u/v/w — A/B/C-kind boxes alias.
#pragma once

#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"

#if GEP_SIMD_X86

namespace gep {

class PivotGuard;  // gep/numeric_guard.hpp

namespace simd {

// --- Leaf kernels ----------------------------------------------------------

// Gaussian elimination box (A/B/C kinds; D-kind routes through
// gemm_leaf): x[i][j] -= (u[i][k] / w[k][k]) * v[k][j].
void ge_avx2(double* x, const double* u, const double* v, const double* w,
             index_t mi, index_t mj, index_t mk, index_t sx, index_t su,
             index_t sv, index_t sw, bool diag_i, bool diag_j);
void ge_avx2(float* x, const float* u, const float* v, const float* w,
             index_t mi, index_t mj, index_t mk, index_t sx, index_t su,
             index_t sv, index_t sw, bool diag_i, bool diag_j);

// LU box with in-place multipliers. guard == nullptr is the unguarded
// kernel; otherwise every diag_j pivot runs through guard->admit
// (k_base = box's global elimination offset) exactly as
// scalar::kernel_lu does — one code path keeps guarded and
// unguarded runs bit-identical on healthy input. w is written only by
// an admitting guard with policy Boost.
void lu_avx2(double* x, const double* u, const double* v, double* w,
             index_t mi, index_t mj, index_t mk, index_t sx, index_t su,
             index_t sv, index_t sw, bool diag_i, bool diag_j,
             const PivotGuard* guard, index_t k_base);
void lu_avx2(float* x, const float* u, const float* v, float* w, index_t mi,
             index_t mj, index_t mk, index_t sx, index_t su, index_t sv,
             index_t sw, bool diag_i, bool diag_j, const PivotGuard* guard,
             index_t k_base);

// Small-tile matmul accumulate x += u * v (axpy form, for tiles below
// the packing threshold; larger D-kind tiles use gemm_leaf).
void mm_avx2(double* x, const double* u, const double* v, index_t mi,
             index_t mj, index_t mk, index_t sx, index_t su, index_t sv);
void mm_avx2(float* x, const float* u, const float* v, index_t mi,
             index_t mj, index_t mk, index_t sx, index_t su, index_t sv);

}  // namespace simd
}  // namespace gep

#endif  // GEP_SIMD_X86
