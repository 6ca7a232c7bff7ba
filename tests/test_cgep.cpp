// C-GEP's full-generality claim: H must equal G bit-for-bit on EVERY
// (f, Σ_G) — including instances where I-GEP provably fails. We probe
// with linear functionals (any operand-state error shifts the output),
// nonlinear functions, random sparse Σ sets, and both space variants.
#include <gtest/gtest.h>

#include <cmath>

#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

Matrix<double> random_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
  return m;
}

struct Instance {
  index_t n;
  index_t base;
};

class CGepFullGenerality : public ::testing::TestWithParam<Instance> {};

TEST_P(CGepFullGenerality, SumFMatchesGWhereIGepFails) {
  auto [n, base] = GetParam();
  Matrix<double> init = random_matrix(n, 3 + static_cast<unsigned>(n));
  Matrix<double> ref = init, h4 = init, hc = init;
  run_gep(ref, SumF{}, FullSet{n});
  run_cgep(h4, SumF{}, FullSet{n}, {base});
  run_cgep_compact(hc, SumF{}, FullSet{n}, {base});
  EXPECT_TRUE(approx_equal(ref, h4, 0.0)) << "4n^2 n=" << n;
  EXPECT_TRUE(approx_equal(ref, hc, 0.0)) << "compact n=" << n;
}

TEST_P(CGepFullGenerality, LinearFMatchesG) {
  auto [n, base] = GetParam();
  LinearF f{0.9, -0.4, 0.3, 0.2};
  Matrix<double> init = random_matrix(n, 17 + static_cast<unsigned>(n));
  Matrix<double> ref = init, h4 = init, hc = init;
  run_gep(ref, f, FullSet{n});
  run_cgep(h4, f, FullSet{n}, {base});
  run_cgep_compact(hc, f, FullSet{n}, {base});
  // multiply-based f: allow ulp-level drift from FMA contraction, which
  // the optimizer applies differently across inlined call sites.
  EXPECT_TRUE(approx_equal(ref, h4, 1e-9));
  EXPECT_TRUE(approx_equal(ref, hc, 1e-9));
}

TEST_P(CGepFullGenerality, NonlinearFMatchesG) {
  auto [n, base] = GetParam();
  auto f = [](double x, double u, double v, double w) {
    return 0.5 * x + std::sin(u) * 0.2 + v * w * 0.1;
  };
  Matrix<double> init = random_matrix(n, 29 + static_cast<unsigned>(n));
  Matrix<double> ref = init, h4 = init, hc = init;
  run_gep(ref, f, FullSet{n});
  run_cgep(h4, f, FullSet{n}, {base});
  run_cgep_compact(hc, f, FullSet{n}, {base});
  EXPECT_TRUE(approx_equal(ref, h4, 1e-9));
  EXPECT_TRUE(approx_equal(ref, hc, 1e-9));
}

// SumF and the paper's instances under all three variants (the parallel
// one on 4 workers): each equals G bit for bit, at any n.
TEST_P(CGepFullGenerality, EveryVariantMatchesGOnPaperInstances) {
  auto [n, base] = GetParam();
  WorkStealingPool pool(4);
  WsParInvoker inv{&pool};
  auto check = [&](const char* name, const Matrix<double>& init,
                   const auto& f, const auto& sigma) {
    Matrix<double> ref = init, h4 = init, hc = init, hp = init;
    run_gep(ref, f, sigma);
    run_cgep(h4, f, sigma, {base});
    run_cgep_compact(hc, f, sigma, {base});
    run_cgep_parallel(inv, hp, f, sigma, {base});
    EXPECT_TRUE(approx_equal(ref, h4, 0.0)) << name << " 4n^2 n=" << n;
    EXPECT_TRUE(approx_equal(ref, hc, 0.0)) << name << " compact n=" << n;
    EXPECT_TRUE(approx_equal(ref, hp, 0.0)) << name << " parallel n=" << n;
  };
  const auto seed = 41 + static_cast<unsigned>(n);
  check("SumF", random_matrix(n, seed), SumF{}, FullSet{n});
  Matrix<double> dist = random_matrix(n, seed + 1);
  Matrix<double> dd = random_matrix(n, seed + 2);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) dist(i, j) = std::abs(dist(i, j));
    dist(i, i) = 0.0;
    dd(i, i) += static_cast<double>(n) + 1.0;
  }
  check("MinPlusF", dist, MinPlusF{}, FullSet{n});
  check("GaussF", dd, GaussF{}, GaussianSet{n});
  check("LUIndexedF", dd, LUIndexedF{}, LUSet{n});
}

// Instances past {64, 16} have n != 2^q: the recursion prunes at n and
// clips its leaves.
INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, CGepFullGenerality,
    ::testing::Values(Instance{1, 1}, Instance{2, 1}, Instance{4, 1},
                      Instance{8, 1}, Instance{8, 4}, Instance{16, 1},
                      Instance{16, 8}, Instance{32, 1}, Instance{32, 8},
                      Instance{64, 16}, Instance{3, 1}, Instance{5, 1},
                      Instance{5, 4}, Instance{63, 16}, Instance{65, 4},
                      Instance{100, 1}, Instance{100, 16}));

// Randomized sparse update sets: each (i,j,k) independently in Σ, at a
// power-of-two n and at n != 2^q. LinearF's values grow about
// geometrically with n (|c| ~ 1e8 at n = 64), so the sizes stay where
// the absolute tolerance is still ulp-scale.
TEST(CGepRandomSigma, MatchesGOnRandomSets) {
  for (index_t n : {16, 5, 17, 31}) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      // Deterministic hash-based membership: pure predicate, ~35% density.
      auto member = [seed, n](index_t i, index_t j, index_t k) {
        std::uint64_t h = static_cast<std::uint64_t>((i * n + j) * n + k);
        h ^= seed * 0x9e3779b97f4a7c15ULL;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 29;
        return (h % 100) < 35;
      };
      auto sigma = make_predicate_set(n, member);
      LinearF f{1.0, 0.7, -0.6, 0.25};
      Matrix<double> init = random_matrix(n, 1000 + seed);
      Matrix<double> ref = init, h4 = init, hc = init;
      run_gep(ref, f, sigma);
      run_cgep(h4, f, sigma, {1});
      run_cgep_compact(hc, f, sigma, {1});
      // LinearF multiplies: tolerate FMA-contraction ulp drift (see above).
      EXPECT_TRUE(approx_equal(ref, h4, 1e-9)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(approx_equal(ref, hc, 1e-9)) << "n=" << n << " seed=" << seed;
    }
  }
}

// On supported instances C-GEP and I-GEP agree too (both equal G).
TEST(CGepSupportedInstances, AgreesWithIGepOnGaussian) {
  const index_t n = 32;
  Matrix<double> init = random_matrix(n, 5);
  for (index_t i = 0; i < n; ++i) init(i, i) += n + 1.0;
  Matrix<double> a = init, b = init;
  run_igep(a, GaussF{}, GaussianSet{n}, {8});
  run_cgep(b, GaussF{}, GaussianSet{n}, {8});
  EXPECT_LT(max_abs_diff(a, b), 1e-9);
}

// Base-size sweep for C-GEP: every base size must give the identical
// (bit-exact) result — the iterative box kernel with live/saved reads is
// an exact refinement.
TEST(CGepBaseSize, BitExactAcrossBaseSizes) {
  const index_t n = 32;
  Matrix<double> init = random_matrix(n, 77);
  Matrix<double> ref = init;
  run_gep(ref, SumF{}, FullSet{n});
  for (index_t base : {1, 2, 4, 8, 16, 32}) {
    Matrix<double> got = init;
    run_cgep(got, SumF{}, FullSet{n}, {base});
    EXPECT_TRUE(approx_equal(ref, got, 0.0)) << "base=" << base;
    Matrix<double> gotc = init;
    run_cgep_compact(gotc, SumF{}, FullSet{n}, {base});
    EXPECT_TRUE(approx_equal(ref, gotc, 0.0)) << "compact base=" << base;
  }
}

// The counterexample of Section 2.2.1, but C-GEP fixes it.
TEST(CGepCounterexample, RepairsTheSumFCase) {
  Matrix<double> init(2, 2, 0.0);
  init(1, 1) = 1.0;
  Matrix<double> ref = init, h = init, hc = init, f = init;
  run_gep(ref, SumF{}, FullSet{2});
  run_igep(f, SumF{}, FullSet{2}, {1});
  run_cgep(h, SumF{}, FullSet{2}, {1});
  run_cgep_compact(hc, SumF{}, FullSet{2}, {1});
  EXPECT_DOUBLE_EQ(ref(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(f(1, 0), 8.0);      // I-GEP: wrong, as the paper shows
  EXPECT_DOUBLE_EQ(h(1, 0), 2.0);      // C-GEP: right
  EXPECT_DOUBLE_EQ(hc(1, 0), 2.0);
}

}  // namespace
}  // namespace gep
