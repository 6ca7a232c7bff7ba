// Strassen-fused packed GEMM (simd/strassen.*): numerics against the
// classic path, engagement/fallback contract, determinism, the scaled
// GE form, config plumbing, and the typed engine's Strassen-eligible
// D-kind leaves gated by Freivalds / residual certificates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "apps/apps.hpp"
#include "blas/blas.hpp"
#include "gep/kernels.hpp"
#include "gep/numeric_guard.hpp"
#include "obs/registry.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

std::vector<double> random_buf(index_t count, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::vector<double> v(static_cast<std::size_t>(count));
  for (auto& x : v) x = g.uniform(-1.0, 1.0);
  return v;
}

// Reference c += alpha * a * b, plain triple loop.
void naive_gemm(index_t m, index_t n, index_t k, double alpha,
                const double* a, index_t lda, const double* b, index_t ldb,
                double* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < k; ++p) {
      const double aip = alpha * a[i * lda + p];
      for (index_t j = 0; j < n; ++j) {
        c[i * ldc + j] += aip * b[p * ldb + j];
      }
    }
  }
}

double max_abs_diff(const std::vector<double>& x,
                    const std::vector<double>& y) {
  double e = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    e = std::max(e, std::abs(x[i] - y[i]));
  }
  return e;
}

bool bitwise_equal(const std::vector<double>& x,
                   const std::vector<double>& y) {
  return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

Matrix<double> dd_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(0.5, 1.5);
    m(i, i) += static_cast<double>(n);
  }
  return m;
}

// Defaults are measured on the dev/CI host (bench_kernels
// --tune-strassen); pin them so a silent change shows up as a test
// edit. Env overrides skip the pin, so the forced-Strassen CI leg can
// still run this binary.
TEST(Strassen, PinnedDefaults) {
  EXPECT_EQ(simd::kStrassenMaxLevels, 2);
  EXPECT_EQ(simd::kStrassenLevelsDefault, 1);
  EXPECT_EQ(simd::kStrassenMinMDefault, 384);
  EXPECT_EQ(simd::kStrassenMinMFloor, 16);
  EXPECT_EQ(simd::kMaxGemmOperands, 4);
  if (std::getenv("GEP_STRASSEN_LEVELS") == nullptr) {
    EXPECT_EQ(simd::strassen_levels(), simd::kStrassenLevelsDefault);
  }
  if (std::getenv("GEP_STRASSEN_MIN_M") == nullptr) {
    EXPECT_EQ(simd::strassen_min_m(), simd::kStrassenMinMDefault);
  }
}

TEST(Strassen, PlannedLevelsFollowsThreshold) {
  {
    simd::ScopedGemmOptions g({2, 16});
    EXPECT_EQ(simd::strassen_planned_levels(64, 64, 64), 2);
    EXPECT_EQ(simd::strassen_planned_levels(16, 64, 64), 1);  // 8 < 16 next
    EXPECT_EQ(simd::strassen_planned_levels(15, 64, 64), 0);
  }
  {
    simd::ScopedGemmOptions g({0, 16});
    EXPECT_EQ(simd::strassen_planned_levels(4096, 4096, 4096), 0);
  }
  {
    simd::ScopedGemmOptions g({1, 128});
    EXPECT_EQ(simd::strassen_planned_levels(128, 128, 128), 1);
    EXPECT_EQ(simd::strassen_planned_levels(127, 128, 128), 0);
  }
}

// Forward error vs the classic path across square, non-square, odd
// (dynamic peeling), and micro-tile-fringe shapes, at both depths.
TEST(Strassen, ForwardErrorVsClassic) {
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{64, 64, 64},  {96, 96, 96},   {97, 97, 97},
                          {64, 80, 48},  {33, 65, 129},  {128, 37, 90},
                          {130, 130, 62}};
  for (int levels : {1, 2}) {
    for (const Shape& s : shapes) {
      auto a = random_buf(s.m * s.k, 101), b = random_buf(s.k * s.n, 102);
      auto ref = random_buf(s.m * s.n, 103);
      auto got = ref;
      naive_gemm(s.m, s.n, s.k, 0.5, a.data(), s.k, b.data(), s.n, ref.data(),
                 s.n);
      simd::ScopedGemmOptions g({levels, 16});
      ASSERT_TRUE(simd::strassen_gemm(s.m, s.n, s.k, 0.5, a.data(), s.k,
                                      b.data(), s.n, got.data(), s.n))
          << "did not engage at m=" << s.m;
      // Strassen inflates the classic O(k eps) bound by a constant per
      // level; these shapes with |a|,|b| <= 1 stay comfortably inside.
      EXPECT_LT(max_abs_diff(ref, got), 1e-11)
          << "levels=" << levels << " m=" << s.m << " n=" << s.n
          << " k=" << s.k;
    }
  }
}

// Operands and destination as submatrix views of larger parents (the
// shape every D-kind leaf call has): entries outside the C view must
// stay untouched.
TEST(Strassen, SubmatrixViewsLeaveSurroundingsAlone) {
  const index_t ld = 300, m = 128, n = 96, k = 112;
  auto parent_a = random_buf(ld * ld, 201);
  auto parent_b = random_buf(ld * ld, 202);
  auto parent_c = random_buf(ld * ld, 203);
  auto ref_c = parent_c;
  const index_t ao = 3 * ld + 17, bo = 41 * ld + 5, co = 11 * ld + 99;
  naive_gemm(m, n, k, 1.0, parent_a.data() + ao, ld, parent_b.data() + bo, ld,
             ref_c.data() + co, ld);
  simd::ScopedGemmOptions g({2, 16});
  ASSERT_TRUE(simd::strassen_gemm(m, n, k, 1.0, parent_a.data() + ao, ld,
                                  parent_b.data() + bo, ld,
                                  parent_c.data() + co, ld));
  double err = 0;
  index_t outside_diffs = 0;
  for (index_t i = 0; i < ld; ++i) {
    for (index_t j = 0; j < ld; ++j) {
      const std::size_t at = static_cast<std::size_t>(i * ld + j);
      const index_t ci = i - co / ld, cj = j - co % ld;
      const bool inside = ci >= 0 && ci < m && cj >= 0 && cj < n;
      if (inside) {
        err = std::max(err, std::abs(parent_c[at] - ref_c[at]));
      } else if (parent_c[at] != ref_c[at]) {
        ++outside_diffs;
      }
    }
  }
  EXPECT_LT(err, 1e-11);
  EXPECT_EQ(outside_diffs, 0);
}

TEST(Strassen, DeterministicRunToRun) {
  const index_t m = 97, n = 120, k = 64;
  auto a = random_buf(m * k, 301), b = random_buf(k * n, 302);
  for (int levels : {1, 2}) {
    simd::ScopedGemmOptions g({levels, 16});
    auto c1 = random_buf(m * n, 303);
    auto c2 = c1;
    ASSERT_TRUE(simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n,
                                    c1.data(), n));
    ASSERT_TRUE(simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n,
                                    c2.data(), n));
    EXPECT_TRUE(bitwise_equal(c1, c2)) << "levels=" << levels;
  }
}

// levels=0 (and sub-threshold sizes) must leave the classic path
// bit-identical to a build without the Strassen layer: strassen_gemm
// declines and blas::dgemm produces the same bits either way.
TEST(Strassen, DisabledAndSubThresholdFallBackBitIdentically) {
  const index_t n = 96;
  auto a = random_buf(n * n, 401), b = random_buf(n * n, 402);
  auto c0 = random_buf(n * n, 403);
  {
    simd::ScopedGemmOptions g({0, 16});
    auto c = c0;
    EXPECT_FALSE(simd::strassen_gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                                     c.data(), n));
    EXPECT_TRUE(bitwise_equal(c, c0));  // untouched on decline
  }
  std::vector<double> classic;
  {
    simd::ScopedGemmOptions g({0, 16});
    auto c = c0;
    blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
    classic = c;
  }
  {
    // Enabled but below threshold: same classic bits.
    simd::ScopedGemmOptions g({2, n + 1});
    auto c = c0;
    blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
    EXPECT_TRUE(bitwise_equal(c, classic));
  }
}

// The scalar micro-kernel leg (the $GEP_FORCE_SCALAR CI lane) must run
// the same fused recursion within tolerance of the dispatched one.
TEST(Strassen, ScalarFallbackEquivalence) {
  const index_t m = 96, n = 104, k = 80;
  auto a = random_buf(m * k, 501), b = random_buf(k * n, 502);
  auto ref = random_buf(m * n, 503);
  auto scalar_c = ref;
  naive_gemm(m, n, k, 1.0, a.data(), k, b.data(), n, ref.data(), n);
  simd::ScopedGemmOptions g({2, 16});
  simd::force_level(simd::Level::Scalar);
  const bool engaged = simd::strassen_gemm(m, n, k, 1.0, a.data(), k,
                                           b.data(), n, scalar_c.data(), n);
  simd::clear_forced_level();
  ASSERT_TRUE(engaged);
  EXPECT_LT(max_abs_diff(ref, scalar_c), 1e-11);
  auto active_c = random_buf(m * n, 503);
  ASSERT_TRUE(simd::strassen_gemm(m, n, k, 1.0, a.data(), k, b.data(), n,
                                  active_c.data(), n));
  EXPECT_LT(max_abs_diff(scalar_c, active_c), 1e-11);
}

// The fused packs and multi-destination writebacks run on the same
// micro-kernel template at every level, so the AVX-512 8 x 16 tile gives
// the AVX2 6 x 8 bits for alpha = ±1 — odd extents (peeling) and two
// levels (four-operand packs and writebacks) included.
TEST(Strassen, Avx512TileBitIdenticalToAvx2) {
  if (!simd::avx512_available() || simd::forced_scalar_env()) {
    GTEST_SKIP() << "AVX-512F not dispatchable here";
  }
  const index_t m = 97, n = 130, k = 75;
  auto a = random_buf(m * k, 521), b = random_buf(k * n, 522);
  const auto c0 = random_buf(m * n, 523);
  for (int levels : {1, 2}) {
    simd::ScopedGemmOptions g({levels, 16});
    for (double alpha : {1.0, -1.0}) {
      auto c2 = c0, c512 = c0;
      simd::force_level(simd::Level::Avx2);
      ASSERT_TRUE(simd::strassen_gemm(m, n, k, alpha, a.data(), k, b.data(),
                                      n, c2.data(), n));
      simd::force_level(simd::Level::Avx512);
      ASSERT_TRUE(simd::strassen_gemm(m, n, k, alpha, a.data(), k, b.data(),
                                      n, c512.data(), n));
      EXPECT_TRUE(bitwise_equal(c2, c512))
          << "levels=" << levels << " alpha=" << alpha;
    }
  }
  simd::clear_forced_level();
}

// Scaled GE form: x -= (u * diag(w)^-1) * v with the hoisted
// reciprocals, against a scalar reference using the identical rounding
// (multiply by 1/w, not divide).
TEST(Strassen, ScaledGePathMatchesReference) {
  const index_t m = 96;
  auto u = random_buf(m * m, 601), v = random_buf(m * m, 602);
  Matrix<double> w = dd_matrix(m, 603);
  auto ref = random_buf(m * m, 604);
  auto got = ref;
  std::vector<double> inv(static_cast<std::size_t>(m));
  for (index_t p = 0; p < m; ++p) inv[p] = 1.0 / w(p, p);
  for (index_t i = 0; i < m; ++i) {
    for (index_t p = 0; p < m; ++p) {
      const double t = u[i * m + p] * inv[p];
      for (index_t j = 0; j < m; ++j) ref[i * m + j] -= t * v[p * m + j];
    }
  }
  simd::ScopedGemmOptions g({1, 16});
  ASSERT_TRUE(simd::strassen_gemm_scaled(got.data(), u.data(), v.data(),
                                         w.data(), m, m, m, m, m));
  EXPECT_LT(max_abs_diff(ref, got), 1e-11);
}

// gemm_tile consults the Strassen layer ahead of the classic leaf path
// (the typed engine's MM/D-kind route).
TEST(Strassen, GemmTileRoutesThroughStrassen) {
  const index_t m = 64;
  auto u = random_buf(m * m, 701), v = random_buf(m * m, 702);
  auto ref = random_buf(m * m, 703);
  auto got = ref;
  {
    simd::ScopedGemmOptions g({0, 16});
    simd::gemm_tile(ref.data(), u.data(), v.data(), m, m, m, m, -1.0);
  }
  const std::uint64_t calls_before =
      obs::counter("kernels.strassen.calls").value();
  {
    simd::ScopedGemmOptions g({1, 16});
    simd::gemm_tile(got.data(), u.data(), v.data(), m, m, m, m, -1.0);
  }
  if (obs::kEnabled) {
    EXPECT_GT(obs::counter("kernels.strassen.calls").value(), calls_before);
  }
  EXPECT_LT(max_abs_diff(ref, got), 1e-11);
}

TEST(Strassen, FallbackCounterTracksDeclines) {
  if (!obs::kEnabled) GTEST_SKIP() << "GEP_OBS disabled";
  const index_t n = 32;
  auto a = random_buf(n * n, 801), b = random_buf(n * n, 802),
       c = random_buf(n * n, 803);
  const std::uint64_t before =
      obs::counter("kernels.strassen.fallbacks").value();
  simd::ScopedGemmOptions g({2, n + 1});  // configured on, below threshold
  EXPECT_FALSE(simd::strassen_gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                                   c.data(), n));
  EXPECT_GT(obs::counter("kernels.strassen.fallbacks").value(), before);
}

// End-to-end gates: typed I-GEP with Strassen-eligible D-kind leaves
// must still pass the randomized product / residual certificates. The
// base size is chosen so leaves clear the (floored) threshold and the
// engagement counter proves the fast path actually ran.
TEST(Strassen, TypedMatmulWithStrassenLeavesPassesFreivalds) {
  const index_t n = 512, base = 256;
  Matrix<double> a(n, n), b(n, n);
  SplitMix64 g(901);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1.0, 1.0);
      b(i, j) = g.uniform(-1.0, 1.0);
    }
  }
  Matrix<double> before(n, n, 0.25), c = before;
  apps::RunOptions opts;
  opts.base_size = base;
  opts.gemm = {1, 128};
  const std::uint64_t calls_before =
      obs::counter("kernels.strassen.calls").value();
  apps::multiply_add(c, a, b, apps::Engine::IGep, opts);
  if (obs::kEnabled && detail::leaf_use_avx2()) {
    EXPECT_GT(obs::counter("kernels.strassen.calls").value(), calls_before);
  }
  EXPECT_TRUE(apps::freivalds_check(c, before, a, b));
}

TEST(Strassen, TypedLuWithStrassenLeavesPassesResidual) {
  const index_t n = 512, base = 256;
  const Matrix<double> a = dd_matrix(n, 902);
  Matrix<double> lu = a;
  apps::RunOptions opts;
  opts.base_size = base;
  opts.gemm = {1, 128};
  apps::lu_decompose(lu, apps::Engine::IGep, opts);
  EXPECT_LT(lu_residual_sample(a, lu, 16), 1e-9);
  // And against the classic-leaf factorization, elementwise.
  Matrix<double> lu_classic = a;
  apps::RunOptions off = opts;
  off.gemm = {0, -1};
  apps::lu_decompose(lu_classic, apps::Engine::IGep, off);
  double err = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      err = std::max(err, std::abs(lu(i, j) - lu_classic(i, j)));
    }
  }
  EXPECT_LT(err, 1e-8);
}

}  // namespace
}  // namespace gep
