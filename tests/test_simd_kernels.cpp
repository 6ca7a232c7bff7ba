// SIMD-vs-scalar contract of the dispatched base-case kernels.
//
// Semiring kernels (fw, bottleneck, tc) must be BIT-EXACT against the
// scalar templates; the FMA kernels (ge, lu, mm) must agree within
// tolerance across every box kind (including the aliased A/B/C-kind
// operand patterns the typed engine produces) and be deterministic
// run-to-run at a fixed dispatch level. The guarded LU kernel must be
// bit-identical to the unguarded one on healthy input, per level.
//
// The semiring comparisons call the simd::*_avx2 kernels directly
// rather than through the gep::kernel_* wrappers: in TUs compiled with
// AVX-512 the wrappers deliberately keep those kernels on the (wider)
// autovectorized scalar path (GEP_SIMD_ROUTE_SEMIRING in
// gep/kernels.hpp), and the explicit kernels must stay covered either
// way. The FMA kernels route unconditionally, so their tests exercise
// the real wrapper dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gep/kernels.hpp"
#include "gep/numeric_guard.hpp"
#include "obs/registry.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/strassen.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// Sizes chosen to hit every fringe case: below/at/above vector width,
// below/at/above the packed-GEMM threshold, and micro-tile remainders.
const index_t kSizes[] = {1, 2, 3, 5, 7, 8, 15, 16, 17, 31, 33, 64, 65, 96};

std::vector<double> random_tile(index_t m, index_t stride, std::uint64_t seed,
                                double lo, double hi) {
  SplitMix64 g(seed);
  std::vector<double> t(static_cast<std::size_t>(m * stride), 0.0);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) t[static_cast<std::size_t>(i * stride + j)] = g.uniform(lo, hi);
  return t;
}

// Diagonally-dominant tile: well away from pivot breakdown so guarded
// and unguarded LU agree and no division amplifies the comparison.
std::vector<double> dominant_tile(index_t m, index_t stride,
                                  std::uint64_t seed) {
  auto t = random_tile(m, stride, seed, -1.0, 1.0);
  for (index_t i = 0; i < m; ++i)
    t[static_cast<std::size_t>(i * stride + i)] =
        2.0 + 0.25 * static_cast<double>(i % 7);
  return t;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

// Forces a dispatch level for the test body, restores CPUID selection
// after. Skips AVX2-comparison tests when the host can't run AVX2 or
// the process is pinned scalar via $GEP_FORCE_SCALAR (the CI fallback
// leg still runs the dispatch-semantics tests below).
class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override { simd::clear_forced_level(); }
};

// Must be a macro: GTEST_SKIP() returns only from the enclosing
// function, so a helper would skip itself and let the test run on.
#define REQUIRE_AVX2()                                  \
  do {                                                  \
    if (!simd::avx2_available())                        \
      GTEST_SKIP() << "host has no AVX2+FMA";           \
    if (simd::forced_scalar_env())                      \
      GTEST_SKIP() << "GEP_FORCE_SCALAR pins dispatch"; \
  } while (0)

#define REQUIRE_AVX512()                                \
  do {                                                  \
    REQUIRE_AVX2();                                     \
    if (!simd::avx512_available())                      \
      GTEST_SKIP() << "host has no AVX-512F";           \
  } while (0)

// --- dispatch semantics ----------------------------------------------------

TEST_F(SimdKernels, EnvForcedScalarAlwaysWins) {
  if (simd::forced_scalar_env()) {
    simd::force_level(simd::Level::Avx2);
    EXPECT_EQ(simd::active(), simd::Level::Scalar);
    EXPECT_STREQ(simd::active_name(), "scalar");
  } else {
    // Without the env pin, active() follows the override / detection.
    simd::force_level(simd::Level::Scalar);
    EXPECT_EQ(simd::active(), simd::Level::Scalar);
    simd::clear_forced_level();
    EXPECT_EQ(simd::active() >= simd::Level::Avx2, simd::avx2_available());
  }
}

TEST_F(SimdKernels, ForcingAvx2IsClampedToCapability) {
  if (simd::forced_scalar_env()) GTEST_SKIP() << "env pins scalar";
  simd::force_level(simd::Level::Avx2);
  EXPECT_EQ(simd::active() == simd::Level::Avx2, simd::avx2_available());
}

TEST_F(SimdKernels, ForcingAvx512IsClampedToCapability) {
  if (simd::forced_scalar_env()) GTEST_SKIP() << "env pins scalar";
  simd::force_level(simd::Level::Avx512);
  if (!simd::avx512_available()) {
    EXPECT_EQ(simd::active(), simd::avx2_available() ? simd::Level::Avx2
                                                     : simd::Level::Scalar);
    GTEST_SKIP() << "host has no AVX-512F; the clamp is all there is to test";
  }
  EXPECT_EQ(simd::active(), simd::Level::Avx512);
  EXPECT_STREQ(simd::active_name(), "avx512");
  simd::force_level(simd::Level::Avx2);
  EXPECT_EQ(simd::active(), simd::Level::Avx2);
}

TEST_F(SimdKernels, Avx512DispatchCounterTicks) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  REQUIRE_AVX512();
  obs::Counter avx512 = obs::counter("kernels.dispatch.avx512");
  const index_t m = 8;
  auto x = random_tile(m, m, 1, -1, 1);
  auto u = random_tile(m, m, 2, -1, 1);
  auto v = random_tile(m, m, 3, -1, 1);
  simd::force_level(simd::Level::Avx512);
  const std::uint64_t before = avx512.value();
  kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
  EXPECT_EQ(avx512.value(), before + 1);
}

TEST_F(SimdKernels, DispatchCountersTick) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  REQUIRE_AVX2();
  obs::Counter avx2 = obs::counter("kernels.dispatch.avx2");
  obs::Counter scalar = obs::counter("kernels.dispatch.scalar");
  const index_t m = 8;
  auto x = random_tile(m, m, 1, -1, 1);
  auto u = random_tile(m, m, 2, -1, 1);
  auto v = random_tile(m, m, 3, -1, 1);

  simd::force_level(simd::Level::Avx2);
  const std::uint64_t a0 = avx2.value();
  kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
  EXPECT_EQ(avx2.value(), a0 + 1);

  simd::force_level(simd::Level::Scalar);
  const std::uint64_t s0 = scalar.value();
  kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
  EXPECT_EQ(scalar.value(), s0 + 1);
}

// --- semiring kernels: bit-exact -------------------------------------------

TEST_F(SimdKernels, FloydWarshallBitExact) {
  REQUIRE_AVX2();
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      auto u = random_tile(m, stride, 10 + static_cast<std::uint64_t>(m), 0.0,
                           10.0);
      auto v = random_tile(m, stride, 20 + static_cast<std::uint64_t>(m), 0.0,
                           10.0);
      auto x_s = random_tile(m, stride, 30 + static_cast<std::uint64_t>(m),
                             0.0, 10.0);
      auto x_v = x_s;
      scalar::kernel_fw(x_s.data(), u.data(), v.data(), m, stride, stride,
                        stride);
#if GEP_SIMD_X86
      simd::fw_avx2(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
#endif
      EXPECT_TRUE(bitwise_equal(x_s, x_v)) << "m=" << m << " s=" << stride;
    }
  }
}

TEST_F(SimdKernels, FloydWarshallBitExactAliasedAKind) {
  REQUIRE_AVX2();
  for (index_t m : {5, 16, 33, 64}) {
    // A-kind box: x, u, v are the same tile (zero diagonal metric).
    auto a = random_tile(m, m, 40 + static_cast<std::uint64_t>(m), 0.1, 10.0);
    for (index_t i = 0; i < m; ++i) a[static_cast<std::size_t>(i * m + i)] = 0.0;
    auto b = a;
    scalar::kernel_fw(a.data(), a.data(), a.data(), m, m, m, m);
#if GEP_SIMD_X86
    simd::fw_avx2(b.data(), b.data(), b.data(), m, m, m, m);
#endif
    EXPECT_TRUE(bitwise_equal(a, b)) << "m=" << m;
  }
}

TEST_F(SimdKernels, BottleneckBitExact) {
  REQUIRE_AVX2();
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      auto u = random_tile(m, stride, 50 + static_cast<std::uint64_t>(m), 0.0,
                           5.0);
      auto v = random_tile(m, stride, 60 + static_cast<std::uint64_t>(m), 0.0,
                           5.0);
      auto x_s = random_tile(m, stride, 70 + static_cast<std::uint64_t>(m),
                             0.0, 5.0);
      auto x_v = x_s;
      scalar::kernel_bottleneck(x_s.data(), u.data(), v.data(), m, stride,
                                stride, stride);
#if GEP_SIMD_X86
      simd::bottleneck_avx2(x_v.data(), u.data(), v.data(), m, stride, stride,
                            stride);
#endif
      EXPECT_TRUE(bitwise_equal(x_s, x_v)) << "m=" << m << " s=" << stride;
    }
  }
}

TEST_F(SimdKernels, TransitiveClosureBitExact) {
  REQUIRE_AVX2();
  SplitMix64 g(7);
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      std::vector<std::uint8_t> u(static_cast<std::size_t>(m * stride), 0);
      std::vector<std::uint8_t> v(static_cast<std::size_t>(m * stride), 0);
      std::vector<std::uint8_t> x_s(static_cast<std::size_t>(m * stride), 0);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < m; ++j) {
          const auto at = static_cast<std::size_t>(i * stride + j);
          u[at] = static_cast<std::uint8_t>(g.next() & 1);
          v[at] = static_cast<std::uint8_t>(g.next() & 1);
          x_s[at] = static_cast<std::uint8_t>(g.next() & 1);
        }
      auto x_v = x_s;
      scalar::kernel_tc(x_s.data(), u.data(), v.data(), m, stride, stride,
                        stride);
#if GEP_SIMD_X86
      simd::tc_avx2(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
#endif
      EXPECT_EQ(0, std::memcmp(x_s.data(), x_v.data(), x_s.size()))
          << "m=" << m << " s=" << stride;
    }
  }
}

// --- FMA kernels: tolerance + determinism across every box kind ------------

// Operand aliasing per box kind (how the typed engine calls them):
//   A: x = u = v = w (one tile)    B: x = v, u = w
//   C: u = x, v = w                D: all distinct
struct KindCase {
  bool di, dj;
  const char* name;
};
const KindCase kKinds[] = {{true, true, "A"},
                           {true, false, "B"},
                           {false, true, "C"},
                           {false, false, "D"}};

// Runs `op(x, u, v, w)` with the aliasing pattern of `kind` on fresh
// copies of a dominant tile set, at the given dispatch level; returns x.
template <class Op>
std::vector<double> run_boxed(const KindCase& kind, index_t m, index_t stride,
                              std::uint64_t seed, simd::Level level, Op op) {
  auto x = dominant_tile(m, stride, seed);
  auto other = dominant_tile(m, stride, seed + 1000);
  simd::force_level(level);
  if (kind.di && kind.dj) {  // A: everything is the x tile
    op(x.data(), x.data(), x.data(), x.data());
  } else if (kind.di) {  // B: x = v, u = w
    op(x.data(), other.data(), x.data(), other.data());
  } else if (kind.dj) {  // C: u = x, v = w
    op(x.data(), x.data(), other.data(), other.data());
  } else {  // D: all distinct
    auto v = dominant_tile(m, stride, seed + 2000);
    auto w = dominant_tile(m, stride, seed + 3000);
    op(x.data(), other.data(), v.data(), w.data());
  }
  return x;
}

TEST_F(SimdKernels, GaussianEliminationMatchesScalarAllKinds) {
  REQUIRE_AVX2();
  for (const KindCase& kind : kKinds) {
    for (index_t m : kSizes) {
      for (index_t stride : {m, m + 3}) {
        auto op = [&](double* x, const double* u, const double* v,
                      const double* w) {
          kernel_ge(x, u, v, w, m, stride, stride, stride, stride, kind.di,
                    kind.dj);
        };
        auto ref = run_boxed(kind, m, stride, 100, simd::Level::Scalar, op);
        auto got = run_boxed(kind, m, stride, 100, simd::Level::Avx2, op);
        auto again = run_boxed(kind, m, stride, 100, simd::Level::Avx2, op);
        // Error grows with the k-sweep; the bound also covers portable
        // builds whose scalar baseline has no FMA contraction.
        EXPECT_LT(max_abs_diff(ref, got), 1e-11 * static_cast<double>(m))
            << "kind=" << kind.name << " m=" << m << " s=" << stride;
        EXPECT_TRUE(bitwise_equal(got, again))
            << "non-deterministic: kind=" << kind.name << " m=" << m;
      }
    }
  }
}

TEST_F(SimdKernels, LuMatchesScalarAllKinds) {
  REQUIRE_AVX2();
  for (const KindCase& kind : kKinds) {
    for (index_t m : kSizes) {
      for (index_t stride : {m, m + 3}) {
        auto op = [&](double* x, const double* u, const double* v,
                      const double* w) {
          kernel_lu(x, u, v, w, m, stride, stride, stride, stride, kind.di,
                    kind.dj);
        };
        auto ref = run_boxed(kind, m, stride, 200, simd::Level::Scalar, op);
        auto got = run_boxed(kind, m, stride, 200, simd::Level::Avx2, op);
        auto again = run_boxed(kind, m, stride, 200, simd::Level::Avx2, op);
        // Looser than GE: stored multipliers feed later k-steps, so the
        // contraction difference compounds through the elimination.
        EXPECT_LT(max_abs_diff(ref, got), 5e-11 * static_cast<double>(m))
            << "kind=" << kind.name << " m=" << m << " s=" << stride;
        EXPECT_TRUE(bitwise_equal(got, again))
            << "non-deterministic: kind=" << kind.name << " m=" << m;
      }
    }
  }
}

TEST_F(SimdKernels, GuardedLuBitIdenticalToUnguardedPerLevel) {
  REQUIRE_AVX2();
  const PivotGuard guard(BreakdownPolicy::Report, 1e-12, 1.0);
  for (simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
    for (const KindCase& kind : kKinds) {
      for (index_t m : {5, 15, 16, 17, 33, 64}) {
        auto plain_op = [&](double* x, const double* u, const double* v,
                            const double* w) {
          kernel_lu(x, u, v, w, m, m, m, m, m, kind.di, kind.dj);
        };
        auto guarded_op = [&](double* x, const double* u, const double* v,
                              const double* w) {
          kernel_lu_guarded(x, u, v, const_cast<double*>(w), m, m, m, m, m,
                            kind.di, kind.dj, guard, 0);
        };
        auto plain = run_boxed(kind, m, m, 300, level, plain_op);
        auto guarded = run_boxed(kind, m, m, 300, level, guarded_op);
        EXPECT_TRUE(bitwise_equal(plain, guarded))
            << "level=" << simd::level_name(level) << " kind=" << kind.name
            << " m=" << m;
      }
    }
  }
  EXPECT_EQ(guard.breakdowns(), 0u) << "dominant tiles should never trip";
}

TEST_F(SimdKernels, MatmulMatchesScalarAcrossGemmThreshold) {
  REQUIRE_AVX2();
  for (index_t m : kSizes) {
    for (index_t stride : {m, m + 3}) {
      auto u = random_tile(m, stride, 400 + static_cast<std::uint64_t>(m),
                           -1.0, 1.0);
      auto v = random_tile(m, stride, 500 + static_cast<std::uint64_t>(m),
                           -1.0, 1.0);
      auto x_s = random_tile(m, stride, 600 + static_cast<std::uint64_t>(m),
                             -1.0, 1.0);
      auto x_v = x_s;
      auto x_v2 = x_s;
      simd::force_level(simd::Level::Scalar);
      kernel_mm(x_s.data(), u.data(), v.data(), m, stride, stride, stride);
      simd::force_level(simd::Level::Avx2);
      kernel_mm(x_v.data(), u.data(), v.data(), m, stride, stride, stride);
      kernel_mm(x_v2.data(), u.data(), v.data(), m, stride, stride, stride);
      const double scale = static_cast<double>(m);
      EXPECT_LT(max_abs_diff(x_s, x_v), 1e-12 * scale)
          << "m=" << m << " s=" << stride;
      EXPECT_TRUE(bitwise_equal(x_v, x_v2)) << "non-deterministic m=" << m;
    }
  }
}

// Only the packed-GEMM register tile widens at Avx512 (8 x 16 vs 6 x 8).
// Both tiles run the same per-element FMA chain over the same k-chunks,
// so for alpha = ±1 — every GEP leaf — the two levels agree bit for bit,
// including the 6 x 8 tile's row fringes (m is never a multiple of 6)
// and the Strassen route.
template <class T>
void expect_gemm_levels_bitwise_equal() {
  auto same_bits = [](const std::vector<T>& a, const std::vector<T>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  };
  auto tile = [](index_t m, std::uint64_t seed) {
    SplitMix64 g(seed);
    std::vector<T> t(static_cast<std::size_t>(m * (m + 3)));
    for (auto& e : t) e = static_cast<T>(g.uniform(-1.0, 1.0));
    return t;
  };
  auto run = [](simd::Level level, auto&& op, std::vector<T> x) {
    simd::force_level(level);
    op(x.data());
    return x;
  };
  for (const simd::GemmOptions gemm :
       {simd::GemmOptions{0, -1}, simd::GemmOptions{1, 32}}) {
    simd::ScopedGemmOptions scope(gemm);
    for (index_t m : {16, 32, 64, 128, 256}) {
      const index_t s = m + 3;
      const auto u = tile(m, 1), v = tile(m, 2), x = tile(m, 3);
      auto w = tile(m, 4);
      for (index_t i = 0; i < m; ++i) w[i * s + i] = static_cast<T>(2 + i % 5);
      for (T alpha : {T{1}, T{-1}}) {
        auto op = [&](T* xp) {
          simd::gemm_tile(xp, u.data(), v.data(), m, s, s, s, alpha);
        };
        EXPECT_TRUE(same_bits(run(simd::Level::Avx2, op, x),
                              run(simd::Level::Avx512, op, x)))
            << "gemm_tile m=" << m << " alpha=" << alpha
            << " strassen_levels=" << gemm.strassen_levels;
      }
      auto op = [&](T* xp) {
        simd::gemm_tile_scaled(xp, u.data(), v.data(), w.data(), m, s, s, s,
                               s);
      };
      EXPECT_TRUE(same_bits(run(simd::Level::Avx2, op, x),
                            run(simd::Level::Avx512, op, x)))
          << "gemm_tile_scaled m=" << m
          << " strassen_levels=" << gemm.strassen_levels;
    }
  }
}

TEST_F(SimdKernels, GemmTileBitIdenticalAcrossAvx2AndAvx512) {
  REQUIRE_AVX512();
  expect_gemm_levels_bitwise_equal<double>();
  expect_gemm_levels_bitwise_equal<float>();
}

// Every non-GEMM leaf keeps its AVX2 kernel at Avx512 (leaf_use_avx2 is
// true there): the A/B/C-kind LU boxes must not fall back to scalar, and
// all four kinds give the Avx2 bits.
TEST_F(SimdKernels, LuLeavesRunAvx2KernelsAtAvx512) {
  REQUIRE_AVX512();
  for (const KindCase& kind : kKinds) {
    for (index_t m : {7, 15, 33, 64}) {
      auto op = [&](double* x, const double* u, const double* v,
                    const double* w) {
        kernel_lu(x, u, v, w, m, m, m, m, m, kind.di, kind.dj);
      };
      EXPECT_TRUE(bitwise_equal(
          run_boxed(kind, m, m, 700, simd::Level::Avx2, op),
          run_boxed(kind, m, m, 700, simd::Level::Avx512, op)))
          << "kind=" << kind.name << " m=" << m;
    }
  }
  simd::force_level(simd::Level::Avx512);
  EXPECT_TRUE(detail::leaf_use_avx2());
}

// The packed-GEMM route must kick in exactly at kGemmMinM — both sides
// of the boundary already run in the loops above; this pins the
// threshold itself so a silent change shows up as a test edit.
// gemm_min_m() is the runtime value ($GEP_GEMM_MIN_M override); with
// the env unset it must resolve to the same pinned default.
TEST_F(SimdKernels, GemmThresholdIsStable) {
  EXPECT_EQ(simd::kGemmMinM, 16);
  if (std::getenv("GEP_GEMM_MIN_M") == nullptr) {
    EXPECT_EQ(simd::gemm_min_m(), simd::kGemmMinM);
  }
}

}  // namespace
}  // namespace gep
