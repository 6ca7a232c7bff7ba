// SIMD-vs-scalar contract of the dispatched base-case kernels.
//
// Semiring kernels (fw, bottleneck, tc) must be BIT-EXACT against G's
// update, applied element by element in k/i/j order, at every dispatch
// level, for D-kind (disjoint) and aliased boxes alike, and whole
// Floyd-Warshall solves must be bitwise equal across levels and to G.
// The FMA kernels (ge, lu, mm) must agree within tolerance across every
// box kind (including the aliased A/B/C-kind operand patterns the typed
// engine produces) and be deterministic run-to-run at a fixed dispatch
// level. The guarded LU kernel must be bit-identical to the unguarded
// one on healthy input, per level. Every test goes through the
// gep::kernel_* wrappers, i.e. the real dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "apps/apps.hpp"
#include "gep/functors.hpp"
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

// --- semiring kernels: bit-exact against G ---------------------------------

// Every level, in order; a test runs the ones this host (and
// $GEP_FORCE_SCALAR) allows.
const simd::Level kLevels[] = {simd::Level::Scalar, simd::Level::Avx2,
                               simd::Level::Avx512};

bool runnable(simd::Level l) {
  if (l == simd::Level::Scalar) return true;
  if (simd::forced_scalar_env()) return false;
  return l == simd::Level::Avx2 ? simd::avx2_available()
                                : simd::avx512_available();
}

// Reports the levels a semiring test could not run as a skip, after
// every runnable level was checked (a failure above still fails).
#define SKIP_ABSENT_LEVELS()                                        \
  do {                                                              \
    for (simd::Level l : kLevels)                                   \
      if (!runnable(l))                                             \
        GTEST_SKIP() << "level " << simd::level_name(l)             \
                     << " absent; the lower levels were checked";   \
  } while (0)

// Sizes below, at and above the packed-leaf threshold and every tile
// fringe; strides exceed m by a non-multiple of the vector width.
const index_t kSemiringSizes[] = {1, 7, 16, 33, 64, 100, 128};

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// A tile of small integers, so sums tie exactly, salted with +inf, -inf
// (max-min only) and signed zeros, whose order a wrong tie rule flips.
template <class T>
std::vector<T> tie_tile(index_t m, index_t stride, std::uint64_t seed,
                        bool neg_inf) {
  SplitMix64 g(seed);
  std::vector<T> t(static_cast<std::size_t>(m * stride), T{7});
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) {
      const std::uint64_t r = g.next() % 16;
      T e = static_cast<T>(r % 5);
      if (r == 13) e = std::numeric_limits<T>::infinity();
      if (r == 14) e = neg_inf ? -std::numeric_limits<T>::infinity() : T{0};
      if (r == 15) e = -T{0};
      t[static_cast<std::size_t>(i * stride + j)] = e;
    }
  return t;
}

// G's update f over one m x m box, in k/i/j order, every operand read
// at its use: the oracle. x, u, v may alias.
template <class T, class F>
void g_box(T* x, const T* u, const T* v, index_t m, index_t s, F f) {
  for (index_t k = 0; k < m; ++k)
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j)
        x[i * s + j] = f(x[i * s + j], u[i * s + k], v[k * s + j], T{});
}

// Runs `kernel` on a D-kind box (x, u, v distinct) at every runnable
// level and compares it bitwise with g_box. Row 0 of u and of x hold
// the semiring's zero (+inf for min-plus, -inf for max-min), so every
// candidate of x's row 0 is that zero too: the accumulator identity
// must not leak into it.
template <class T, class F, class K>
void expect_disjoint_boxes_match_g(F f, K kernel, T zero) {
  const bool neg_inf = zero < T{0};
  for (simd::Level level : kLevels) {
    if (!runnable(level)) continue;
    for (index_t m : kSemiringSizes) {
      const index_t s = m + 5;
      auto u = tie_tile<T>(m, s, 10 + m, neg_inf);
      const auto v = tie_tile<T>(m, s, 20 + m, neg_inf);
      auto want = tie_tile<T>(m, s, 30 + m, neg_inf);
      std::fill_n(u.begin(), m, zero);
      std::fill_n(want.begin(), m, zero);
      auto got = want;
      g_box(want.data(), u.data(), v.data(), m, s, f);
      simd::force_level(level);
      kernel(got.data(), u.data(), v.data(), m, s);
      simd::clear_forced_level();
      EXPECT_TRUE(same_bits(want, got))
          << "level=" << simd::level_name(level) << " m=" << m;
    }
  }
}

template <class T>
void expect_fw_matches_g() {
  expect_disjoint_boxes_match_g<T>(
      MinPlusF{},
      [](T* x, const T* u, const T* v, index_t m, index_t s) {
        kernel_fw(x, u, v, m, s, s, s);
      },
      std::numeric_limits<T>::infinity());
}

template <class T>
void expect_bottleneck_matches_g() {
  expect_disjoint_boxes_match_g<T>(
      MaxMinF{},
      [](T* x, const T* u, const T* v, index_t m, index_t s) {
        kernel_bottleneck(x, u, v, m, s, s, s);
      },
      -std::numeric_limits<T>::infinity());
}

TEST_F(SimdKernels, FloydWarshallBitExact) {
  expect_fw_matches_g<double>();
  expect_fw_matches_g<float>();
  SKIP_ABSENT_LEVELS();
}

TEST_F(SimdKernels, BottleneckBitExact) {
  expect_bottleneck_matches_g<double>();
  expect_bottleneck_matches_g<float>();
  SKIP_ABSENT_LEVELS();
}

// Arbitrary bytes, not just 0/1: G's or-and is x | (u & v) bitwise.
TEST_F(SimdKernels, TransitiveClosureBitExact) {
  for (simd::Level level : kLevels) {
    if (!runnable(level)) continue;
    for (index_t m : kSemiringSizes) {
      const index_t s = m + 5;
      auto bytes = [&](std::uint64_t seed) {
        SplitMix64 g(seed);
        std::vector<std::uint8_t> t(static_cast<std::size_t>(m * s));
        for (auto& b : t) b = static_cast<std::uint8_t>(g.next());
        return t;
      };
      const auto u = bytes(40 + m), v = bytes(50 + m);
      auto want = bytes(60 + m);
      auto got = want;
      g_box(want.data(), u.data(), v.data(), m, s, OrAndF{});
      simd::force_level(level);
      kernel_tc(got.data(), u.data(), v.data(), m, s, s, s);
      simd::clear_forced_level();
      EXPECT_TRUE(same_bits(want, got))
          << "level=" << simd::level_name(level) << " m=" << m;
    }
  }
  SKIP_ABSENT_LEVELS();
}

// Aliased boxes as the typed engine produces them — A: x = u = v,
// B: x = v, C: x = u — on tiles that meet the kernels' fixed-point
// contract (a zero diagonal for min-plus, +inf for max-min, no such
// need for or-and): they take the straight-line path at every level
// and still match G, which re-reads every operand at its use.
template <class T, class F, class K>
void expect_aliased_boxes_match_g(F f, K kernel, T diag) {
  for (simd::Level level : kLevels) {
    if (!runnable(level)) continue;
    for (index_t m : {7, 16, 33, 64}) {
      const index_t s = m + 5;
      auto tile = [&](std::uint64_t seed) {
        auto t = tie_tile<T>(m, s, seed, false);
        for (auto& e : t) e = e < T{0} ? -e : e;  // non-negative
        for (index_t i = 0; i < m; ++i) t[i * s + i] = diag;
        return t;
      };
      const auto other = tile(70 + m);
      for (const char* kind : {"A", "B", "C"}) {
        auto want = tile(80 + m);
        auto got = want;
        auto run = [&](T* x, auto box) {
          const char k = kind[0];
          const T* u = k == 'B' ? other.data() : x;
          const T* v = k == 'C' ? other.data() : x;
          box(x, u, v);
        };
        run(want.data(), [&](T* x, const T* u, const T* v) {
          g_box(x, u, v, m, s, f);
        });
        simd::force_level(level);
        run(got.data(), [&](T* x, const T* u, const T* v) {
          kernel(x, u, v, m, s);
        });
        simd::clear_forced_level();
        EXPECT_TRUE(same_bits(want, got))
            << "level=" << simd::level_name(level) << " kind=" << kind
            << " m=" << m;
      }
    }
  }
}

TEST_F(SimdKernels, FloydWarshallBitExactAliasedAKind) {
  expect_aliased_boxes_match_g<double>(
      MinPlusF{},
      [](double* x, const double* u, const double* v, index_t m, index_t s) {
        kernel_fw(x, u, v, m, s, s, s);
      },
      0.0);
  SKIP_ABSENT_LEVELS();
}

TEST_F(SimdKernels, BottleneckAndClosureAliasedBoxesMatchG) {
  expect_aliased_boxes_match_g<float>(
      MaxMinF{},
      [](float* x, const float* u, const float* v, index_t m, index_t s) {
        kernel_bottleneck(x, u, v, m, s, s, s);
      },
      std::numeric_limits<float>::infinity());
  expect_aliased_boxes_match_g<std::uint8_t>(
      OrAndF{},
      [](std::uint8_t* x, const std::uint8_t* u, const std::uint8_t* v,
         index_t m, index_t s) { kernel_tc(x, u, v, m, s, s, s); },
      std::uint8_t{1});
  SKIP_ABSENT_LEVELS();
}

// D-kind leaves run the level's packed micro-kernel, A/B/C-kind ones
// the straight-line template (ticked as scalar).
TEST_F(SimdKernels, SemiringDispatchTicksThePathThatRan) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  REQUIRE_AVX2();
  obs::Counter avx2 = obs::counter("kernels.dispatch.avx2");
  obs::Counter scalar = obs::counter("kernels.dispatch.scalar");
  const index_t m = 64;
  auto x = random_tile(m, m, 1, 0, 1), u = random_tile(m, m, 2, 0, 1),
       v = random_tile(m, m, 3, 0, 1);
  simd::force_level(simd::Level::Avx2);
  const std::uint64_t a0 = avx2.value(), s0 = scalar.value();
  kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);  // D
  kernel_fw(x.data(), x.data(), v.data(), m, m, m, m);  // C
  EXPECT_EQ(avx2.value(), a0 + 1);
  EXPECT_EQ(scalar.value(), s0 + 1);
}

// Whole Floyd-Warshall solves: every engine that runs the typed leaves
// (row-major I-GEP on the fork-join and DAG runtimes, Z-Morton I-GEP),
// at every level, bitwise equal to G, with +inf for missing edges and a
// non-power-of-two n (padded) beside a power of two.
TEST_F(SimdKernels, FloydWarshallSolvesBitwiseEqualAcrossLevelsAndG) {
  for (index_t n : {1000, 2048}) {
    SplitMix64 g(static_cast<std::uint64_t>(n));
    Matrix<double> init(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        init(i, j) = i == j          ? 0.0
                     : g.chance(0.3) ? std::numeric_limits<double>::infinity()
                                     : static_cast<double>(1 + g.next() % 64);
    Matrix<double> want = init;
    apps::floyd_warshall(want, apps::Engine::Iterative);
    struct Run {
      apps::Engine engine;
      apps::Runtime runtime;
      const char* name;
    };
    for (const Run& r : {Run{apps::Engine::IGep, apps::Runtime::ForkJoin,
                             "igep"},
                         Run{apps::Engine::IGepZ, apps::Runtime::ForkJoin,
                             "igepz"},
                         Run{apps::Engine::IGep, apps::Runtime::Dag, "dag"}}) {
      for (simd::Level level : kLevels) {
        if (!runnable(level)) continue;
        Matrix<double> got = init;
        simd::force_level(level);
        apps::floyd_warshall(got, r.engine, {64, 4, r.runtime});
        simd::clear_forced_level();
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 static_cast<std::size_t>(n * n) *
                                     sizeof(double)))
            << r.name << " level=" << simd::level_name(level) << " n=" << n;
      }
    }
  }
  SKIP_ABSENT_LEVELS();
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

// --- clipped edge leaves ----------------------------------------------------
//
// The padding-free engine runs an edge leaf clipped to mi x mj by mk.
// The reference is the square leaf on tiles whose entries past those
// extents hold the problem's Σ-neutral pad (what a run on the padded
// matrix sees): in range the two must agree bit for bit at every level
// (routing follows the nominal side, and the pad's updates are no-ops),
// and the clipped leaf must leave everything out of range untouched.

// A leaf's operand tiles, side d.m at stride d.m + 5, aliased per kind
// as run_boxed does. Tile 0 is always x, valid over d.mi x d.mj.
// fill(i, j, diag_tile) gives the in-range entries; past them a tile
// holds `pad`, and a diagonal tile (the matrix's (k, k) block) holds
// `pad_diag` on its diagonal. Moves keep op[] valid; copies would not.
template <class T>
struct EdgeBox {
  index_t s = 0;
  std::vector<T> tile[4];
  T* op[4] = {};  // x, u, v, w

  EdgeBox() = default;
  EdgeBox(EdgeBox&&) = default;
  EdgeBox(const EdgeBox&) = delete;
};

template <class T, class Fill>
EdgeBox<T> edge_box(const KindCase& kind, const LeafDims& d, T pad,
                    T pad_diag, Fill fill) {
  EdgeBox<T> b;
  b.s = d.m + 5;
  auto make = [&](int slot, index_t rows, index_t cols, bool diag) {
    std::vector<T>& t = b.tile[slot];
    t.assign(static_cast<std::size_t>(d.m * b.s), pad);
    for (index_t i = 0; i < d.m; ++i)
      for (index_t j = 0; j < d.m; ++j)
        t[static_cast<std::size_t>(i * b.s + j)] =
            i < rows && j < cols ? fill(i, j, diag)
            : diag && i == j     ? pad_diag
                                 : pad;
    return t.data();
  };
  if (kind.di && kind.dj) {  // A: one diagonal tile
    T* a = make(0, d.mi, d.mi, true);
    b.op[0] = b.op[1] = b.op[2] = b.op[3] = a;
  } else if (kind.di) {  // B: x = v on (K, J), u = w on (K, K)
    T* x = make(0, d.mk, d.mj, false);
    T* w = make(1, d.mk, d.mk, true);
    b.op[0] = b.op[2] = x;
    b.op[1] = b.op[3] = w;
  } else if (kind.dj) {  // C: x = u on (I, K), v = w on (K, K)
    T* x = make(0, d.mi, d.mk, false);
    T* w = make(1, d.mk, d.mk, true);
    b.op[0] = b.op[1] = x;
    b.op[2] = b.op[3] = w;
  } else {  // D: all distinct
    b.op[0] = make(0, d.mi, d.mj, false);
    b.op[1] = make(1, d.mi, d.mk, false);
    b.op[2] = make(2, d.mk, d.mj, false);
    b.op[3] = make(3, d.mk, d.mk, true);
  }
  return b;
}

// The extents an edge leaf of each kind can have: A boxes clip all
// three alike, B boxes have mi == mk and C boxes mj == mk. Sides 8 (row
// kernels) and 64 (packed D leaves: one clipped to a single row or
// column still packs, as the padded box did).
std::vector<LeafDims> edge_dims(const KindCase& kind) {
  std::vector<LeafDims> out;
  for (index_t m : {8, 64}) {
    const index_t half = m / 2 + 1;
    for (index_t e : {index_t{1}, half, m - 1}) {
      if (kind.di && kind.dj) {
        out.emplace_back(m, e, e, e);
      } else if (kind.di) {
        out.emplace_back(m, e, m, e);
        out.emplace_back(m, e, 3, e);
      } else if (kind.dj) {
        out.emplace_back(m, m, e, e);
        out.emplace_back(m, 3, e, e);
      } else {
        out.emplace_back(m, e, m, m);
        out.emplace_back(m, m, e, m);
        out.emplace_back(m, m, m, e);
        out.emplace_back(m, e, 3, half);
      }
    }
  }
  return out;
}

// True when got's x equals want's over d.mi x d.mj bit for bit and
// equals init everywhere else.
template <class T>
bool clipped_x_matches(const EdgeBox<T>& init, const EdgeBox<T>& want,
                       const EdgeBox<T>& got, const LeafDims& d) {
  for (index_t i = 0; i < d.m; ++i) {
    for (index_t j = 0; j < d.m; ++j) {
      const std::size_t at = static_cast<std::size_t>(i * got.s + j);
      const T& ref = i < d.mi && j < d.mj ? want.tile[0][at] : init.tile[0][at];
      if (std::memcmp(&got.tile[0][at], &ref, sizeof(T)) != 0) return false;
    }
  }
  return true;
}

// Runs kernel(ops, kind, dims, stride) square on one edge box and
// clipped on an identical one, at every runnable level.
template <class T, class Fill, class Kernel>
void expect_clipped_leaves_match(const char* name,
                                 std::initializer_list<KindCase> kinds,
                                 T pad, T pad_diag, Fill fill,
                                 Kernel kernel) {
  for (simd::Level level : kLevels) {
    if (!runnable(level)) continue;
    for (const KindCase& kind : kinds) {
      for (const LeafDims& d : edge_dims(kind)) {
        const auto init = edge_box(kind, d, pad, pad_diag, fill);
        auto want = edge_box(kind, d, pad, pad_diag, fill);
        auto got = edge_box(kind, d, pad, pad_diag, fill);
        simd::force_level(level);
        kernel(want.op, kind, LeafDims(d.m), want.s);
        kernel(got.op, kind, d, got.s);
        simd::clear_forced_level();
        EXPECT_TRUE(clipped_x_matches(init, want, got, d))
            << name << " level=" << simd::level_name(level)
            << " kind=" << kind.name << " m=" << d.m << " extents " << d.mi
            << " x " << d.mj << " x " << d.mk
            << " strassen_levels=" << simd::strassen_levels();
      }
    }
  }
}

// Hash-seeded entries, identical in every copy of a box.
double entry_uniform(index_t i, index_t j, double lo, double hi) {
  SplitMix64 g(static_cast<std::uint64_t>(i * 131 + j * 7 + 1));
  return g.uniform(lo, hi);
}

// Diagonally dominant in range, so GE/LU never divide by a small pivot.
double dominant_entry(index_t i, index_t j, bool diag) {
  return diag && i == j ? 2.0 + 0.25 * static_cast<double>(i % 7)
                        : entry_uniform(i, j, -1.0, 1.0);
}

TEST_F(SimdKernels, ClippedFmaLeavesMatchPaddedSquareLeaves) {
  const std::initializer_list<KindCase> all = {kKinds[0], kKinds[1],
                                               kKinds[2], kKinds[3]};
  using Ops = double* const*;
  // Classic D leaves, and two Strassen levels engaged on the side 64:
  // an edge box takes Strassen exactly when its side does.
  const PivotGuard guard(BreakdownPolicy::Report, 1e-12, 1.0);
  for (const simd::GemmOptions gemm :
       {simd::GemmOptions{0, -1}, simd::GemmOptions{2, 32}}) {
    simd::ScopedGemmOptions scope(gemm);
    // Identity pad: zero off the diagonal, unit pivots.
    expect_clipped_leaves_match<double>(
        "ge", all, 0.0, 1.0, dominant_entry,
        [](Ops p, const KindCase& k, LeafDims d, index_t s) {
          kernel_ge(p[0], p[1], p[2], p[3], d, s, s, s, s, k.di, k.dj);
        });
    expect_clipped_leaves_match<double>(
        "lu", all, 0.0, 1.0, dominant_entry,
        [](Ops p, const KindCase& k, LeafDims d, index_t s) {
          kernel_lu(p[0], p[1], p[2], p[3], d, s, s, s, s, k.di, k.dj);
        });
    expect_clipped_leaves_match<double>(
        "lu_guarded", all, 0.0, 1.0, dominant_entry,
        [&](Ops p, const KindCase& k, LeafDims d, index_t s) {
          kernel_lu_guarded(p[0], p[1], p[2], p[3], d, s, s, s, s, k.di, k.dj,
                            guard, 0);
        });
    // Matmul leaves are D-kind only (restrict operands).
    expect_clipped_leaves_match<double>(
        "mm", {kKinds[3]}, 0.0, 0.0,
        [](index_t i, index_t j, bool) { return entry_uniform(i, j, -1, 1); },
        [](Ops p, const KindCase&, LeafDims d, index_t s) {
          kernel_mm(p[0], p[1], p[2], d, s, s, s);
        });
  }
  EXPECT_EQ(guard.breakdowns(), 0u);
  SKIP_ABSENT_LEVELS();
}

// Small integers so sums tie, salted with +inf; a zero diagonal on
// diagonal tiles (the aliased boxes' fixed point).
template <class T>
T tie_entry(index_t i, index_t j, bool diag) {
  if (diag && i == j) return T{0};
  const double r = entry_uniform(i, j, 0.0, 12.0);
  return r >= 11.0 ? std::numeric_limits<T>::infinity()
                   : static_cast<T>(static_cast<int>(r) % 5);
}

template <class T>
void expect_clipped_fw_leaves_match() {
  const T inf = std::numeric_limits<T>::infinity();
  expect_clipped_leaves_match<T>(
      "fw", {kKinds[0], kKinds[1], kKinds[2], kKinds[3]}, inf, T{0},
      tie_entry<T>, [](T* const* p, const KindCase&, LeafDims d, index_t s) {
        kernel_fw(p[0], p[1], p[2], d, s, s, s);
      });
}

TEST_F(SimdKernels, ClippedSemiringLeavesMatchPaddedSquareLeaves) {
  const std::initializer_list<KindCase> all = {kKinds[0], kKinds[1],
                                               kKinds[2], kKinds[3]};
  // Padded vertices are isolated: +inf distances, zero capacities (and
  // +inf on the diagonal), no reachability.
  expect_clipped_fw_leaves_match<double>();
  expect_clipped_fw_leaves_match<float>();
  expect_clipped_leaves_match<double>(
      "bottleneck", all, 0.0, std::numeric_limits<double>::infinity(),
      [](index_t i, index_t j, bool diag) {
        return diag && i == j ? std::numeric_limits<double>::infinity()
                              : std::floor(entry_uniform(i, j, 0.0, 6.0));
      },
      [](double* const* p, const KindCase&, LeafDims d, index_t s) {
        kernel_bottleneck(p[0], p[1], p[2], d, s, s, s);
      });
  expect_clipped_leaves_match<std::uint8_t>(
      "tc", all, std::uint8_t{0}, std::uint8_t{0},
      [](index_t i, index_t j, bool diag) {
        return static_cast<std::uint8_t>(
            (diag && i == j) || entry_uniform(i, j, 0.0, 1.0) < 0.2);
      },
      [](std::uint8_t* const* p, const KindCase&, LeafDims d, index_t s) {
        kernel_tc(p[0], p[1], p[2], d, s, s, s);
      });
  // Successor tracking: distances as fw, successors -1 in the pad; both
  // matrices alias alike and must match in range.
  const double inf = std::numeric_limits<double>::infinity();
  for (const KindCase& kind : all) {
    for (const LeafDims& d : edge_dims(kind)) {
      auto succ_entry = [](index_t i, index_t j, bool) {
        return static_cast<std::int32_t>((i * 7 + j * 3) % 64);
      };
      const auto init_d = edge_box(kind, d, inf, 0.0, tie_entry<double>);
      const auto init_s = edge_box(kind, d, std::int32_t{-1},
                                   std::int32_t{-1}, succ_entry);
      auto want_d = edge_box(kind, d, inf, 0.0, tie_entry<double>);
      auto got_d = edge_box(kind, d, inf, 0.0, tie_entry<double>);
      auto want_s = edge_box(kind, d, std::int32_t{-1}, std::int32_t{-1},
                             succ_entry);
      auto got_s = edge_box(kind, d, std::int32_t{-1}, std::int32_t{-1},
                            succ_entry);
      const index_t s = want_d.s;
      kernel_fw_paths(want_d.op[0], want_d.op[1], want_d.op[2], want_s.op[0],
                      want_s.op[1], LeafDims(d.m), s, s, s, s, s);
      kernel_fw_paths(got_d.op[0], got_d.op[1], got_d.op[2], got_s.op[0],
                      got_s.op[1], d, s, s, s, s, s);
      EXPECT_TRUE(clipped_x_matches(init_d, want_d, got_d, d) &&
                  clipped_x_matches(init_s, want_s, got_s, d))
          << "fw_paths kind=" << kind.name << " m=" << d.m << " extents "
          << d.mi << " x " << d.mj << " x " << d.mk;
    }
  }
  SKIP_ABSENT_LEVELS();
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
