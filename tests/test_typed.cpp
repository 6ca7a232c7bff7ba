// The typed A/B/C/D engine must compute exactly what the generic I-GEP
// recursion (and hence G) computes, for every base size and both layouts.
#include <gtest/gtest.h>

#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/task_graph.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

Matrix<double> random_dist(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 50.0);
    m(i, i) = 0.0;
  }
  return m;
}

Matrix<double> random_dd(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

struct Instance {
  index_t n;
  index_t base;
};

class TypedEngine : public ::testing::TestWithParam<Instance> {};

TEST_P(TypedEngine, FloydWarshallMatchesG) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dist(n, 1 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, MinPlusF{}, FullSet{n});
  RowMajorStore<double> st{got.data(), n, std::min(base, n)};
  igep_floyd_warshall(nullptr, st, n, {base, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(ref, got, 1e-12)) << "n=" << n << " base=" << base;
}

TEST_P(TypedEngine, GaussianMatchesG) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dd(n, 2 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, GaussF{}, GaussianSet{n});
  RowMajorStore<double> st{got.data(), n, std::min(base, n)};
  igep_gaussian(nullptr, st, n, {base, Runtime::ForkJoin});
  EXPECT_LT(max_abs_diff(ref, got), 1e-9) << "n=" << n << " base=" << base;
}

TEST_P(TypedEngine, LUMatchesG) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dd(n, 3 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, LUIndexedF{}, LUSet{n});
  RowMajorStore<double> st{got.data(), n, std::min(base, n)};
  igep_lu(nullptr, st, n, {base, Runtime::ForkJoin});
  EXPECT_LT(max_abs_diff(ref, got), 1e-9) << "n=" << n << " base=" << base;
}

TEST_P(TypedEngine, MatMulMatchesNaive) {
  auto [n, base] = GetParam();
  SplitMix64 g(4 + static_cast<unsigned>(n));
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0), ref(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1, 1);
      b(i, j) = g.uniform(-1, 1);
    }
  }
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < n; ++k) {
      const double aik = a(i, k);
      for (index_t j = 0; j < n; ++j) ref(i, j) += aik * b(k, j);
    }
  RowMajorStore<double> cst{c.data(), n, std::min(base, n)};
  RowMajorStore<const double> ast{a.data(), n, std::min(base, n)};
  RowMajorStore<const double> bst{b.data(), n, std::min(base, n)};
  igep_matmul(nullptr, cst, ast, bst, n, {base, Runtime::ForkJoin});
  EXPECT_LT(max_abs_diff(ref, c), 1e-10) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, TypedEngine,
    ::testing::Values(Instance{1, 1}, Instance{2, 1}, Instance{4, 2},
                      Instance{8, 1}, Instance{8, 8}, Instance{16, 2},
                      Instance{16, 16}, Instance{32, 4}, Instance{64, 8},
                      Instance{64, 64}, Instance{128, 32}));

// n = 100 is not a power of two: both stores cover the recursion's
// virtual tile grid, and the edge leaves are clipped to n.
TEST(TypedEngineZ, FloydWarshallOnZLayoutMatchesRowMajor) {
  for (index_t n : {64, 100}) {
    for (index_t bs : {4, 8, 16}) {
      Matrix<double> init = random_dist(n, 9);
      Matrix<double> rm = init;
      RowMajorStore<double> st{rm.data(), n, bs};
      igep_floyd_warshall(nullptr, st, n, {bs, Runtime::ForkJoin});

      Matrix<double> zm = init;
      ZBlocked<double> z(n, bs);
      z.load(zm);
      ZStore<double> zst{&z};
      igep_floyd_warshall(nullptr, zst, n, {bs, Runtime::ForkJoin});
      z.store(zm);
      EXPECT_TRUE(approx_equal(rm, zm, 0.0)) << "n=" << n << " bs=" << bs;
    }
  }
}

TEST(TypedEngineZ, LUOnZLayoutMatchesRowMajor) {
  for (index_t n : {64, 100}) {
    const index_t bs = 8;
    Matrix<double> init = random_dd(n, 10);
    Matrix<double> rm = init;
    RowMajorStore<double> st{rm.data(), n, bs};
    igep_lu(nullptr, st, n, {bs, Runtime::ForkJoin});

    Matrix<double> zm = init;
    ZBlocked<double> z(n, bs);
    z.load(zm);
    ZStore<double> zst{&z};
    igep_lu(nullptr, zst, n, {bs, Runtime::ForkJoin});
    z.store(zm);
    EXPECT_TRUE(approx_equal(rm, zm, 0.0)) << "n=" << n;
  }
}

// The typed engine and the generic recursive engine must agree exactly
// (identical update order at equal base sizes => bit-identical floats).
TEST(TypedVsGeneric, BitIdenticalAtMatchingBaseSize) {
  const index_t n = 32, bs = 4;
  Matrix<double> init = random_dist(n, 21);
  Matrix<double> a = init, b = init;
  run_igep(a, MinPlusF{}, FullSet{n}, {bs});
  RowMajorStore<double> st{b.data(), n, bs};
  igep_floyd_warshall(nullptr, st, n, {bs, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(a, b, 0.0));
}

}  // namespace
}  // namespace gep
