// Tests for the extension modules: transitive closure (or-and semiring),
// the GAP-problem alignment solver, banded update sets, and parallel
// C-GEP.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "apps/gap_alignment.hpp"
#include "gep/cgep.hpp"
#include "gep/iterative.hpp"
#include "gep/igep.hpp"
#include "gep/trace.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

using apps::Engine;

// --- Transitive closure ---------------------------------------------------

Matrix<std::uint8_t> random_digraph(index_t n, std::uint64_t seed,
                                    double density) {
  SplitMix64 g(seed);
  Matrix<std::uint8_t> a(n, n, std::uint8_t{0});
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = 1;
    for (index_t j = 0; j < n; ++j) {
      if (i != j && g.chance(density)) a(i, j) = 1;
    }
  }
  return a;
}

// Reference reachability by BFS from every source.
Matrix<std::uint8_t> bfs_closure(const Matrix<std::uint8_t>& a) {
  const index_t n = a.rows();
  Matrix<std::uint8_t> r(n, n, std::uint8_t{0});
  for (index_t s = 0; s < n; ++s) {
    std::vector<index_t> stack{s};
    r(s, s) = 1;
    while (!stack.empty()) {
      index_t u = stack.back();
      stack.pop_back();
      for (index_t v = 0; v < n; ++v) {
        if (a(u, v) && !r(s, v)) {
          r(s, v) = 1;
          stack.push_back(v);
        }
      }
    }
  }
  return r;
}

class TransitiveClosure : public ::testing::TestWithParam<index_t> {};

TEST_P(TransitiveClosure, AllEnginesMatchBfs) {
  const index_t n = GetParam();
  for (double density : {0.02, 0.1, 0.4}) {
    Matrix<std::uint8_t> a =
        random_digraph(n, 7 + static_cast<unsigned>(n), density);
    Matrix<std::uint8_t> ref = bfs_closure(a);
    for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                     Engine::CGep, Engine::CGepCompact}) {
      Matrix<std::uint8_t> r = a;
      apps::transitive_closure(r, e, {8, 1});
      bool same = true;
      for (index_t i = 0; i < n && same; ++i)
        for (index_t j = 0; j < n && same; ++j)
          same = ((r(i, j) != 0) == (ref(i, j) != 0));
      EXPECT_TRUE(same) << apps::engine_name(e) << " n=" << n
                        << " density=" << density;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransitiveClosure,
                         ::testing::Values(1, 2, 8, 13, 32, 50));

TEST(TransitiveClosure, ParallelMatchesSequential) {
  const index_t n = 64;
  Matrix<std::uint8_t> a = random_digraph(n, 99, 0.05);
  Matrix<std::uint8_t> seq = a, par = a;
  apps::transitive_closure(seq, Engine::IGep, {8, 1});
  apps::transitive_closure(par, Engine::IGep, {8, 4});
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) ASSERT_EQ(seq(i, j), par(i, j));
}

TEST(TransitiveClosure, RejectsBlockedEngine) {
  Matrix<std::uint8_t> a(4, 4, std::uint8_t{0});
  EXPECT_THROW(apps::transitive_closure(a, Engine::Blocked),
               std::invalid_argument);
}

// --- GAP alignment --------------------------------------------------------

struct GapCase {
  index_t rows, cols;
};

class GapAlignment : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapAlignment, RecursiveMatchesIterativeExactly) {
  auto [rows, cols] = GetParam();
  SplitMix64 g(rows * 131 + cols);
  // Random substitution costs and a concave gap cost (sqrt length).
  std::vector<double> sub(static_cast<std::size_t>(rows * cols));
  for (auto& x : sub) x = g.uniform(0.0, 2.0);
  auto s = [&, cols = cols](index_t i, index_t j) {
    return sub[static_cast<std::size_t>((i - 1) * cols + (j - 1))];
  };
  auto wg = [](index_t q, index_t j) {
    return 0.7 + 0.3 * std::sqrt(static_cast<double>(j - q));
  };
  Matrix<double> a(rows, cols), b(rows, cols);
  apps::gap_alignment_iterative(a, s, wg);
  apps::gap_alignment_recursive(b, s, wg, {4});
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << rows << "x" << cols << " @" << i << ","
                                  << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GapAlignment,
                         ::testing::Values(GapCase{2, 2}, GapCase{3, 5},
                                           GapCase{8, 8}, GapCase{9, 17},
                                           GapCase{16, 16}, GapCase{33, 20},
                                           GapCase{40, 64}, GapCase{65, 65}));

TEST(GapAlignment, BaseSizeInvariance) {
  const index_t rows = 33, cols = 29;
  auto s = [](index_t i, index_t j) {
    return (i * 7 + j * 3) % 5 == 0 ? 0.0 : 1.0;
  };
  auto wg = [](index_t q, index_t j) {
    return 1.0 + 0.5 * static_cast<double>(j - q);
  };
  Matrix<double> ref(rows, cols);
  apps::gap_alignment_iterative(ref, s, wg);
  for (index_t base : {2, 3, 8, 16, 64}) {
    Matrix<double> b(rows, cols);
    apps::gap_alignment_recursive(b, s, wg, {base});
    for (index_t i = 0; i < rows; ++i)
      for (index_t j = 0; j < cols; ++j)
        ASSERT_EQ(ref(i, j), b(i, j)) << "base=" << base;
  }
}

TEST(GapAlignment, AffineGapMatchesKnownEditDistance) {
  // With s = 0/2 (match/mismatch) and wg(q,j) = (j-q) (unit indels, no
  // opening cost), GAP degenerates to classic edit distance with
  // substitution cost 2 — check against a direct O(n²) Levenshtein-style
  // DP on actual strings.
  const std::string x = "GATTACAGATTACA", y = "GCATGCTTGACCA";
  const index_t rows = static_cast<index_t>(x.size()) + 1;
  const index_t cols = static_cast<index_t>(y.size()) + 1;
  auto s = [&](index_t i, index_t j) {
    return x[static_cast<std::size_t>(i - 1)] ==
                   y[static_cast<std::size_t>(j - 1)]
               ? 0.0
               : 2.0;
  };
  auto wg = [](index_t q, index_t j) { return static_cast<double>(j - q); };
  Matrix<double> g(rows, cols);
  apps::gap_alignment_recursive(g, s, wg, {4});

  // Classic quadratic DP.
  Matrix<double> d(rows, cols, 0.0);
  for (index_t i = 0; i < rows; ++i) d(i, 0) = static_cast<double>(i);
  for (index_t j = 0; j < cols; ++j) d(0, j) = static_cast<double>(j);
  for (index_t i = 1; i < rows; ++i) {
    for (index_t j = 1; j < cols; ++j) {
      d(i, j) = std::min({d(i - 1, j - 1) + s(i, j), d(i - 1, j) + 1.0,
                          d(i, j - 1) + 1.0});
    }
  }
  EXPECT_DOUBLE_EQ(g(rows - 1, cols - 1), d(rows - 1, cols - 1));
}

// --- Banded update sets ---------------------------------------------------

TEST(BandedSet, ConsistencyWithBruteForce) {
  const index_t n = 16;
  for (index_t band : {0, 1, 3, 7}) {
    BandedSet s{n, band};
    // next_k matches a scan.
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        for (index_t k = 0; k < n; ++k) {
          index_t brute = kNoNextK;
          for (index_t kk = k + 1; kk < n; ++kk) {
            if (s.contains(i, j, kk)) {
              brute = kk;
              break;
            }
          }
          ASSERT_EQ(s.next_k(i, j, k), brute)
              << band << ":" << i << "," << j << "," << k;
        }
      }
    }
    // Box test has no false negatives and is exact.
    SplitMix64 g(11);
    for (int t = 0; t < 300; ++t) {
      index_t i1 = static_cast<index_t>(g.below(n)), i2 = i1 + static_cast<index_t>(g.below(n - i1));
      index_t j1 = static_cast<index_t>(g.below(n)), j2 = j1 + static_cast<index_t>(g.below(n - j1));
      index_t k1 = static_cast<index_t>(g.below(n)), k2 = k1 + static_cast<index_t>(g.below(n - k1));
      bool brute = false;
      for (index_t i = i1; i <= i2 && !brute; ++i)
        for (index_t j = j1; j <= j2 && !brute; ++j)
          for (index_t k = k1; k <= k2 && !brute; ++k)
            brute = s.contains(i, j, k);
      ASSERT_EQ(s.intersects_box(i1, i2, j1, j2, k1, k2), brute);
    }
  }
}

TEST(BandedSet, BandedMinPlusNeedsCGep) {
  // Restricting Σ to a band makes min-plus GEP *order-sensitive*: which
  // relaxations are available when an operand is read now depends on the
  // update schedule, so banded FW is NOT an I-GEP-legal instance — a
  // live illustration of why C-GEP's full generality matters. C-GEP
  // (both variants) must reproduce G exactly; I-GEP may legitimately
  // differ (and does, at this size/seed).
  const index_t n = 32;
  BandedSet sigma{n, 5};
  SplitMix64 g(3);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 50.0);
    init(i, i) = 0;
  }
  Matrix<double> ref = init, igep = init, cg = init, cgc = init;
  run_gep(ref, MinPlusF{}, sigma);
  run_igep(igep, MinPlusF{}, sigma, {4});
  run_cgep(cg, MinPlusF{}, sigma, {4});
  run_cgep_compact(cgc, MinPlusF{}, sigma, {4});
  EXPECT_TRUE(approx_equal(ref, cg, 1e-12));
  EXPECT_TRUE(approx_equal(ref, cgc, 1e-12));
  EXPECT_FALSE(approx_equal(ref, igep, 1e-12))
      << "banded min-plus unexpectedly became I-GEP-legal";
}

TEST(BandedSet, PruningSkipsWork) {
  const index_t n = 64;
  BandedSet narrow{n, 2};
  Matrix<double> c(n, n, 1.0);
  DirectAccess<double> acc(c.view());
  UpdateLogHook hook;
  run_igep(acc, MinPlusF{}, narrow, {1}, &hook);
  // |Σ| = sum over k of (#i in band)(#j in band) << n³.
  std::size_t expected = 0;
  for (index_t k = 0; k < n; ++k) {
    index_t span = std::min(k + 2, n - 1) - std::max<index_t>(k - 2, 0) + 1;
    expected += static_cast<std::size_t>(span * span);
  }
  EXPECT_EQ(hook.log.size(), expected);
}

// --- Parallel C-GEP -------------------------------------------------------

class ParallelCGep : public ::testing::TestWithParam<int> {};

// Power-of-two n and n != 2^q (the recursion prunes at n and clips).
constexpr index_t kParallelCGepSizes[] = {64, 3, 5, 63, 65, 100};

TEST_P(ParallelCGep, MatchesSequentialOnSumF) {
  const int threads = GetParam();
  WorkStealingPool pool(threads);
  WsParInvoker inv{&pool};
  for (index_t n : kParallelCGepSizes) {
    SplitMix64 g(5);
    Matrix<double> init(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
    Matrix<double> seq = init;
    run_cgep(seq, SumF{}, FullSet{n}, {8});

    Matrix<double> par = init;
    run_cgep_parallel(inv, par, SumF{}, FullSet{n}, {8});
    EXPECT_TRUE(approx_equal(seq, par, 0.0))
        << "threads=" << threads << " n=" << n;
  }
}

TEST_P(ParallelCGep, MatchesSequentialOnLU) {
  const int threads = GetParam();
  WorkStealingPool pool(threads);
  WsParInvoker inv{&pool};
  for (index_t n : kParallelCGepSizes) {
    SplitMix64 g(6);
    Matrix<double> init(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
      init(i, i) += n + 2.0;
    }
    Matrix<double> seq = init;
    run_cgep(seq, LUIndexedF{}, LUSet{n}, {8});

    Matrix<double> par = init;
    run_cgep_parallel(inv, par, LUIndexedF{}, LUSet{n}, {8});
    EXPECT_TRUE(approx_equal(seq, par, 0.0))
        << "threads=" << threads << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCGep, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace gep
