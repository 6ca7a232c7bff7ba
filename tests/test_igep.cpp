// I-GEP (Fig. 2) correctness: must match the iterative G on the paper's
// supported instances (FW, GE, LU, MM-as-GEP) for every size and base
// size — and must REPRODUCE the paper's Section 2.2.1 counterexample on
// the unsupported SumF instance.
#include <gtest/gtest.h>

#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

Matrix<double> random_matrix(index_t n, std::uint64_t seed, double lo = 0.5,
                             double hi = 2.0) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(lo, hi);
  return m;
}

// Diagonally dominant: keeps pivots well away from zero for GE/LU.
Matrix<double> random_dd_matrix(index_t n, std::uint64_t seed) {
  Matrix<double> m = random_matrix(n, seed, -1.0, 1.0);
  for (index_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n) + 1.0;
  return m;
}

Matrix<double> random_dist_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 100.0);
    m(i, i) = 0.0;
  }
  return m;
}

struct Instance {
  index_t n;
  index_t base;
};

class IGepMatchesG : public ::testing::TestWithParam<Instance> {};

TEST_P(IGepMatchesG, FloydWarshall) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dist_matrix(n, 11 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, MinPlusF{}, FullSet{n});
  run_igep(got, MinPlusF{}, FullSet{n}, {base});
  EXPECT_TRUE(approx_equal(ref, got, 1e-12)) << "n=" << n << " base=" << base;
}

TEST_P(IGepMatchesG, GaussianElimination) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dd_matrix(n, 23 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, GaussF{}, GaussianSet{n});
  run_igep(got, GaussF{}, GaussianSet{n}, {base});
  EXPECT_LT(max_abs_diff(ref, got), 1e-9) << "n=" << n << " base=" << base;
}

TEST_P(IGepMatchesG, LUDecomposition) {
  auto [n, base] = GetParam();
  Matrix<double> ref = random_dd_matrix(n, 37 + static_cast<unsigned>(n));
  Matrix<double> got = ref;
  run_gep(ref, LUIndexedF{}, LUSet{n});
  run_igep(got, LUIndexedF{}, LUSet{n}, {base});
  EXPECT_LT(max_abs_diff(ref, got), 1e-9) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, IGepMatchesG,
    ::testing::Values(Instance{1, 1}, Instance{2, 1}, Instance{4, 1},
                      Instance{8, 1}, Instance{8, 2}, Instance{16, 1},
                      Instance{16, 4}, Instance{32, 8}, Instance{32, 32},
                      Instance{64, 16}, Instance{128, 32}, Instance{5, 1},
                      Instance{5, 2}, Instance{65, 16}, Instance{100, 1},
                      Instance{100, 8}));

// Paper Section 2.2.1: 2x2, f = sum of operands, Σ = full cube, initial
// c = [[0,0],[1? ...]] — paper: c[1,1]=c[1,2]=c[2,1]=0, c[2,2]=1 (1-based)
// => 0-based c(1,1)=1, rest 0. G yields c[2,1](1-based)=c(1,0)=2, F
// yields 8.
TEST(IGepCounterexample, SumFDivergesExactlyAsPaperSays) {
  Matrix<double> g0(2, 2, 0.0);
  g0(1, 1) = 1.0;
  Matrix<double> f0 = g0;
  run_gep(g0, SumF{}, FullSet{2});
  run_igep(f0, SumF{}, FullSet{2}, {1});
  EXPECT_DOUBLE_EQ(g0(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(f0(1, 0), 8.0);
  EXPECT_FALSE(approx_equal(g0, f0, 1e-12));
}

// I-GEP base-size invariance: for supported instances every base size
// computes the same result (the iterative box kernel is a legal
// refinement of the recursion).
TEST(IGepBaseSize, InvariantAcrossBaseSizes) {
  const index_t n = 32;
  Matrix<double> init = random_dist_matrix(n, 5);
  Matrix<double> ref = init;
  run_igep(ref, MinPlusF{}, FullSet{n}, {1});
  for (index_t base : {2, 4, 8, 16, 32}) {
    Matrix<double> got = init;
    run_igep(got, MinPlusF{}, FullSet{n}, {base});
    EXPECT_TRUE(approx_equal(ref, got, 1e-12)) << "base=" << base;
  }
}

// Pruning: Σ empty over most of the cube must not change results and
// must leave unrelated cells untouched.
TEST(IGepPruning, SparsePredicateSetOnlyTouchesItsCells) {
  const index_t n = 16;
  // Σ touches only cell (3, 5): a degenerate single-cell-column GEP.
  auto sigma = make_predicate_set(n, [](index_t i, index_t j, index_t k) {
    return i == 3 && j == 5 && k == 2;
  });
  Matrix<double> init = random_matrix(n, 99);
  Matrix<double> ref = init;
  Matrix<double> got = init;
  run_gep(ref, MinPlusF{}, sigma);
  run_igep(got, MinPlusF{}, sigma, {1});
  EXPECT_TRUE(approx_equal(ref, got, 0.0));
  // Exactly one cell may have changed.
  int changed = 0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) changed += (got(i, j) != init(i, j));
  EXPECT_LE(changed, 1);
}

// A conservative (predicate) Σ must give identical results to the exact
// closed-form Σ: pruning is an optimization, never a semantic change.
TEST(IGepPruning, ConservativeBoxesMatchExactBoxes) {
  const index_t n = 16;
  Matrix<double> init = random_dd_matrix(n, 61);
  auto pred = make_predicate_set(n, [](index_t i, index_t j, index_t k) {
    return k < i && k < j;  // GaussianSet, without the fast box test
  });
  Matrix<double> a = init, b = init;
  run_igep(a, GaussF{}, GaussianSet{n}, {4});
  run_igep(b, GaussF{}, pred, {4});
  EXPECT_TRUE(approx_equal(a, b, 0.0));
}

}  // namespace
}  // namespace gep
