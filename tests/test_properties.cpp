// Cross-engine randomized property sweeps: for randomized instances the
// whole engine family must agree, across sizes, seeds, base sizes and
// layouts. These are the "shake the tree" tests: any ordering or
// indexing defect anywhere in the stack shows up as a mismatch here.
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/task_graph.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

using apps::Engine;

struct Sweep {
  index_t n;
  std::uint64_t seed;
};

class CrossEngineFW : public ::testing::TestWithParam<Sweep> {};

TEST_P(CrossEngineFW, AllSixEnginesAgree) {
  auto [n, seed] = GetParam();
  SplitMix64 g(seed);
  Matrix<double> w(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j)
      w(i, j) = g.chance(0.3) ? g.uniform(1.0, 20.0) : apps::kInfDist;
    w(i, i) = 0.0;
  }
  Matrix<double> ref = w;
  apps::floyd_warshall(ref, Engine::Iterative);
  for (Engine e : {Engine::IGep, Engine::IGepZ, Engine::CGep,
                   Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> d = w;
    apps::floyd_warshall(d, e, {8, 1});
    EXPECT_LT(max_abs_diff(ref, d), 1e-9)
        << apps::engine_name(e) << " n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, CrossEngineFW,
    ::testing::Values(Sweep{16, 1}, Sweep{16, 2}, Sweep{24, 3}, Sweep{32, 4},
                      Sweep{32, 5}, Sweep{40, 6}, Sweep{64, 7}, Sweep{96, 8}));

class CrossEngineLU : public ::testing::TestWithParam<Sweep> {};

TEST_P(CrossEngineLU, AllSixEnginesAgree) {
  auto [n, seed] = GetParam();
  SplitMix64 g(seed * 77);
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = g.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 3.0;
  }
  Matrix<double> ref = a;
  apps::lu_decompose(ref, Engine::Iterative);
  for (Engine e : {Engine::IGep, Engine::IGepZ, Engine::CGep,
                   Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> lu = a;
    apps::lu_decompose(lu, e, {8, 1});
    EXPECT_LT(max_abs_diff(ref, lu), 1e-8)
        << apps::engine_name(e) << " n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, CrossEngineLU,
    ::testing::Values(Sweep{16, 1}, Sweep{20, 2}, Sweep{32, 3}, Sweep{33, 4},
                      Sweep{48, 5}, Sweep{64, 6}, Sweep{96, 7}));

// C-GEP vs G on adversarial (f, Σ): both space variants, many seeds.
TEST(CGepFuzz, ManyRandomInstances) {
  SplitMix64 meta(999);
  for (int trial = 0; trial < 30; ++trial) {
    const index_t n = index_t{1} << (1 + meta.below(4));  // 2..16
    const double density = 0.2 + meta.next_double() * 0.7;
    const std::uint64_t salt = meta.next();
    auto sigma = make_predicate_set(
        n, [salt, density, n](index_t i, index_t j, index_t k) {
          std::uint64_t h =
              static_cast<std::uint64_t>((i * n + j) * n + k) ^ salt;
          h *= 0x9e3779b97f4a7c15ULL;
          h ^= h >> 31;
          return (static_cast<double>(h % 1000) / 1000.0) < density;
        });
    LinearF f{meta.uniform(-1, 1), meta.uniform(-1, 1), meta.uniform(-1, 1),
              meta.uniform(-1, 1)};
    SplitMix64 g(salt);
    Matrix<double> init(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
    Matrix<double> ref = init, h4 = init, hc = init;
    run_gep(ref, f, sigma);
    const index_t base = 1 + static_cast<index_t>(meta.below(4));
    run_cgep(h4, f, sigma, {base});
    run_cgep_compact(hc, f, sigma, {base});
    // LinearF multiplies: tolerate FMA-contraction ulp drift.
    ASSERT_TRUE(approx_equal(ref, h4, 1e-9))
        << "trial=" << trial << " n=" << n << " base=" << base;
    ASSERT_TRUE(approx_equal(ref, hc, 1e-9))
        << "trial=" << trial << " n=" << n << " base=" << base;
  }
}

// I-GEP fuzz on supported instances across base sizes and engines.
TEST(IGepFuzz, TypedGenericAndIterativeAgree) {
  SplitMix64 meta(31337);
  for (int trial = 0; trial < 15; ++trial) {
    const index_t n = index_t{1} << (2 + meta.below(5));  // 4..64
    SplitMix64 g(meta.next());
    Matrix<double> init(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 9.0);
      init(i, i) = 0;
    }
    Matrix<double> ref = init;
    run_gep(ref, MinPlusF{}, FullSet{n});

    const index_t base = index_t{1} << meta.below(4);
    Matrix<double> a = init;
    run_igep(a, MinPlusF{}, FullSet{n}, {std::min(base, n)});
    ASSERT_TRUE(approx_equal(ref, a, 1e-12)) << "generic trial=" << trial;

    Matrix<double> b = init;
    RowMajorStore<double> st{b.data(), n, std::min(base, n)};
    igep_floyd_warshall(nullptr, st, n,
                        {std::min(base, n), Runtime::ForkJoin});
    ASSERT_TRUE(approx_equal(ref, b, 1e-12)) << "typed trial=" << trial;
  }
}

}  // namespace
}  // namespace gep
