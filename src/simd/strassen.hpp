// Strassen-accelerated packed GEMM for large D-kind leaves and the
// cache-aware BLAS baseline.
//
// One or two levels of Strassen's 7-multiply recursion run directly on
// the BLIS-style packed engine (simd/microkernel.hpp): every one of the
// 7 (resp. 49) sub-multiplies is a packed GEMM whose operand sums
// (A11+A22, B21-B11, ...) are formed on the fly inside pack_a/pack_b
// (pack_a_multi / pack_b_multi) and whose product is scattered to its C
// quadrants with ±1 coefficients inside the micro-kernel writeback
// (ukr_*_multi). There are no standalone add/copy sweeps and no
// quadrant temporaries: workspace is exactly the thread-local packed
// panels the classic path already owns.
//
// Routing: gemm_tile / gemm_tile_scaled (typed-engine D-kind leaves)
// and blas::dgemm consult strassen_gemm first; it engages only when
// strassen_levels() > 0 and min(m, n, k) >= strassen_min_m(), and
// returns false otherwise so the caller falls through to the classic
// packed path — sub-threshold results stay bit-identical to a build
// without this layer. Odd extents are handled by dynamic peeling (even
// core via Strassen, one-row/column fix-up GEMMs via the packed path).
//
// Numerics: Strassen trades the classic O(k·eps) forward error for a
// larger-constant bound (×~3 per level in practice); results remain
// deterministic run-to-run at a fixed dispatch level. See
// docs/KERNELS.md ("Fast matrix multiplication") for the measured
// crossover and error data.
#pragma once

#include "matrix/matrix.hpp"

namespace gep::simd {

// Hard cap on recursion depth: two levels keep every fused operand list
// within kMaxGemmOperands (each level at most doubles it).
inline constexpr int kStrassenMaxLevels = 2;

// Defaults behind the env knobs, both measured on the dev/CI host with
// bench_kernels --tune-strassen: one level breaks even near edge 320
// (>= 1.0x from 384 up, 1.10-1.16x at 1024-2048), a second level loses to one
// level at every size tried up to 4096 on this bandwidth-limited host
// (its 4-operand packs triple the quadrant read traffic), so the
// default depth is 1. GEP_STRASSEN_LEVELS=2 opts into the second level
// for hosts where compute, not bandwidth, dominates.
inline constexpr int kStrassenLevelsDefault = 1;
inline constexpr index_t kStrassenMinMDefault = 384;

// Smallest accepted strassen_min_m: below this the sub-multiplies
// (edge >= min_m / 2) are too small to amortize even one packing pass.
inline constexpr index_t kStrassenMinMFloor = 16;

// Per-run GEMM tuning, threaded from apps::RunOptions. -1 means
// "inherit" the process default ($GEP_STRASSEN_LEVELS /
// $GEP_STRASSEN_MIN_M / built-in).
struct GemmOptions {
  int strassen_levels = -1;
  index_t strassen_min_m = -1;
};

// Resolved configuration: scoped override if installed, else env knob,
// else built-in default. Levels are clamped to [0, kStrassenMaxLevels],
// min_m to >= kStrassenMinMFloor.
int strassen_levels();
index_t strassen_min_m();

// Installs opts as the process-wide override (fields left at -1 keep
// inheriting the env/default). Drivers install this around a run;
// concurrent runs with conflicting options race benignly (same caveat
// as force_level), so pin via env for multi-job processes.
void set_gemm_options(const GemmOptions& opts);
void clear_gemm_options();

class ScopedGemmOptions {
 public:
  explicit ScopedGemmOptions(const GemmOptions& opts);
  ~ScopedGemmOptions();
  ScopedGemmOptions(const ScopedGemmOptions&) = delete;
  ScopedGemmOptions& operator=(const ScopedGemmOptions&) = delete;

 private:
  int prev_levels_;
  index_t prev_min_m_;
};

// Number of Strassen levels the current configuration applies to an
// m x k by k x n product (0 = classic path).
int strassen_planned_levels(index_t m, index_t n, index_t k);

// c(m x n, row-major ldc) += alpha * a(m x k, lda) * b(k x n, ldb) via
// Strassen. Returns false — with c untouched — when the configuration
// or problem size does not engage at least one level; the caller then
// runs its classic path. c must not alias a or b.
bool strassen_gemm(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc);
bool strassen_gemm(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc);

// Strassen form of gemm_tile_scaled: x(m x m) -= (u * diag(w)^-1) * v.
// The per-column reciprocals are hoisted once (exactly pack_a_scaled's
// rounding) and every packed A quadrant indexes them at its own column
// offset. Same engage-or-return-false contract as strassen_gemm.
bool strassen_gemm_scaled(double* x, const double* u, const double* v,
                          const double* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw);
bool strassen_gemm_scaled(float* x, const float* u, const float* v,
                          const float* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw);

}  // namespace gep::simd
