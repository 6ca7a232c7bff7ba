// Value-type generality: the engines are templates over the element
// type; exercise float, int64 min-plus (exact arithmetic — engines must
// agree bit-for-bit), and uint8 semirings across the whole stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/task_graph.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// --- int64 min-plus: exact arithmetic, all engines must agree exactly ----

constexpr std::int64_t kIntInf = std::numeric_limits<std::int64_t>::max() / 4;

Matrix<std::int64_t> random_int_graph(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<std::int64_t> m(n, n, kIntInf);
  for (index_t i = 0; i < n; ++i) {
    m(i, i) = 0;
    for (index_t j = 0; j < n; ++j) {
      if (i != j && g.chance(0.3)) {
        m(i, j) = static_cast<std::int64_t>(g.below(100)) + 1;
      }
    }
  }
  return m;
}

TEST(IntMinPlus, AllEnginesBitIdentical) {
  for (index_t n : {4, 16, 32}) {
    Matrix<std::int64_t> init = random_int_graph(n, 10 + static_cast<unsigned>(n));
    Matrix<std::int64_t> g = init, f = init, h = init, hc = init, t = init;
    run_gep(g, MinPlusF{}, FullSet{n});
    run_igep(f, MinPlusF{}, FullSet{n}, {4});
    run_cgep(h, MinPlusF{}, FullSet{n}, {4});
    run_cgep_compact(hc, MinPlusF{}, FullSet{n}, {4});
    RowMajorStore<std::int64_t> st{t.data(), n, std::min<index_t>(4, n)};
    igep_floyd_warshall(nullptr, st, n, {4, Runtime::ForkJoin});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        ASSERT_EQ(g(i, j), f(i, j)) << "igep n=" << n;
        ASSERT_EQ(g(i, j), h(i, j)) << "cgep n=" << n;
        ASSERT_EQ(g(i, j), hc(i, j)) << "compact n=" << n;
        ASSERT_EQ(g(i, j), t(i, j)) << "typed n=" << n;
      }
    }
  }
}

TEST(IntMinPlus, NoOverflowNearSentinel) {
  // Relaxations add two near-sentinel values; kIntInf/4 headroom keeps
  // the sum representable and still larger than any real distance.
  const index_t n = 8;
  Matrix<std::int64_t> m(n, n, kIntInf);
  for (index_t i = 0; i < n; ++i) m(i, i) = 0;
  m(0, 1) = 3;
  run_igep(m, MinPlusF{}, FullSet{n}, {2});
  EXPECT_EQ(m(0, 1), 3);
  EXPECT_GE(m(1, 0), kIntInf);  // untouched sentinel
}

// --- float engines ---------------------------------------------------------

TEST(FloatEngines, FloydWarshallMatchesDoubleWithinTolerance) {
  const index_t n = 32;
  SplitMix64 g(3);
  Matrix<float> mf(n, n);
  Matrix<double> md(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double v = (i == j) ? 0.0 : g.uniform(1.0, 50.0);
      mf(i, j) = static_cast<float>(v);
      md(i, j) = static_cast<double>(mf(i, j));  // same starting values
    }
  }
  run_igep(mf, MinPlusF{}, FullSet{n}, {4});
  run_igep(md, MinPlusF{}, FullSet{n}, {4});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(static_cast<double>(mf(i, j)), md(i, j), 1e-3);
    }
  }
}

TEST(FloatEngines, TypedLUCloseToDouble) {
  const index_t n = 32;
  SplitMix64 g(4);
  Matrix<float> af(n, n);
  Matrix<double> ad(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      float v = static_cast<float>(g.uniform(-1.0, 1.0));
      if (i == j) v += static_cast<float>(n) + 2.0f;
      af(i, j) = v;
      ad(i, j) = static_cast<double>(v);
    }
  }
  RowMajorStore<float> stf{af.data(), n, 8};
  RowMajorStore<double> std_{ad.data(), n, 8};
  igep_lu(nullptr, stf, n, {8, Runtime::ForkJoin});
  igep_lu(nullptr, std_, n, {8, Runtime::ForkJoin});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(static_cast<double>(af(i, j)), ad(i, j), 2e-4)
          << i << "," << j;
    }
  }
}

TEST(FloatEngines, ZLayoutRoundTripFloat) {
  const index_t n = 16, bs = 4;
  SplitMix64 g(5);
  Matrix<float> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = static_cast<float>(g.next_double());
  ZBlocked<float> z(n, bs);
  z.load(m);
  Matrix<float> back(n, n, 0.0f);
  z.store(back);
  EXPECT_TRUE(approx_equal(m, back));
}

// --- uint8 or-and semiring through C-GEP -----------------------------------

TEST(ByteSemiring, CGepMatchesGOnClosure) {
  const index_t n = 16;
  SplitMix64 g(6);
  Matrix<std::uint8_t> init(n, n, std::uint8_t{0});
  for (index_t i = 0; i < n; ++i) {
    init(i, i) = 1;
    for (index_t j = 0; j < n; ++j)
      if (g.chance(0.15)) init(i, j) = 1;
  }
  Matrix<std::uint8_t> a = init, b = init, c = init;
  run_gep(a, OrAndF{}, FullSet{n});
  run_cgep(b, OrAndF{}, FullSet{n}, {2});
  run_cgep_compact(c, OrAndF{}, FullSet{n}, {2});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_EQ(a(i, j), b(i, j));
      ASSERT_EQ(a(i, j), c(i, j));
    }
  }
}

}  // namespace
}  // namespace gep
