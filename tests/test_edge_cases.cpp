// Edge cases and failure injection across the stack: degenerate sizes,
// starved caches, singular pivots, scheduler stress, and API guards.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "apps/apps.hpp"
#include "apps/gap_alignment.hpp"
#include "apps/simple_dp.hpp"
#include "blas/blas.hpp"
#include "cachesim/ideal_cache.hpp"
#include "extmem/ooc_matrix.hpp"
#include "gep/cgep.hpp"
#include "layout/zblocked.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/dag_sim.hpp"
#include "parallel/work_stealing.hpp"
#include "util/peak.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace gep {
namespace {

using apps::Engine;

// --- Degenerate sizes ------------------------------------------------------

TEST(EdgeSizes, OneByOneEverything) {
  Matrix<double> m(1, 1, 3.0);
  apps::floyd_warshall(m, Engine::IGep);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);  // min(x, x+x) with x=3? no: d(0,0)=3 stays
  Matrix<double> a(1, 1, 5.0);
  apps::lu_decompose(a, Engine::CGep);
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);  // no updates in LUSet for n=1
  Matrix<double> c(1, 1, 0.0), x(1, 1, 2.0), y(1, 1, 4.0);
  apps::multiply_add(c, x, y, Engine::IGep);
  EXPECT_DOUBLE_EQ(c(0, 0), 8.0);
}

TEST(EdgeSizes, TwoByTwoAllEnginesLU) {
  Matrix<double> a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 6;
  a(1, 1) = 7;
  // LU: l10 = 6/4 = 1.5; u11 = 7 - 1.5*2 = 4.
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::CGep,
                   Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> m = a;
    apps::lu_decompose(m, e);
    EXPECT_DOUBLE_EQ(m(1, 0), 1.5) << apps::engine_name(e);
    EXPECT_DOUBLE_EQ(m(1, 1), 4.0) << apps::engine_name(e);
  }
}

TEST(EdgeSizes, GapAlignmentTinyShapes) {
  auto s = [](index_t, index_t) { return 1.0; };
  auto wg = [](index_t q, index_t j) { return static_cast<double>(j - q); };
  // 1 x 1: only G(0,0) = 0.
  Matrix<double> g1(1, 1);
  apps::gap_alignment_recursive(g1, s, wg);
  EXPECT_DOUBLE_EQ(g1(0, 0), 0.0);
  // 1 x k: pure row gaps.
  Matrix<double> g2(1, 6), r2(1, 6);
  apps::gap_alignment_recursive(g2, s, wg, {2});
  apps::gap_alignment_iterative(r2, s, wg);
  for (index_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(g2(0, j), r2(0, j));
  // k x 1: pure column gaps.
  Matrix<double> g3(7, 1), r3(7, 1);
  apps::gap_alignment_recursive(g3, s, wg, {2});
  apps::gap_alignment_iterative(r3, s, wg);
  for (index_t i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(g3(i, 0), r3(i, 0));
}

TEST(EdgeSizes, SimpleDpDegenerate) {
  auto w = [](index_t, index_t) { return 1.0; };
  Matrix<double> d2(2, 2, 0.0);
  d2(0, 1) = 7;
  apps::simple_dp_recursive(d2, w);
  EXPECT_DOUBLE_EQ(d2(0, 1), 7.0);  // leaves untouched
  Matrix<double> d3(3, 3, 0.0);
  d3(0, 1) = 1;
  d3(1, 2) = 2;
  apps::simple_dp_recursive(d3, w, {2});
  EXPECT_DOUBLE_EQ(d3(0, 2), 4.0);  // 1 + (1+2)
}

// --- Numerical failure: singular pivots -----------------------------------

TEST(Singular, LUWithZeroPivotProducesNonFinite) {
  // No pivoting: a zero pivot must surface as inf/nan, never crash.
  Matrix<double> a(4, 4, 1.0);  // rank-1: second pivot is exactly 0
  apps::lu_decompose(a, Engine::IGep, {2, 1});
  bool nonfinite = false;
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) nonfinite |= !std::isfinite(a(i, j));
  EXPECT_TRUE(nonfinite);
}

// --- Starved caches ---------------------------------------------------------

TEST(Starved, PageCacheSingleFrameStillCorrect) {
  PageCache cache(64, 64);  // one 64-byte frame = 8 doubles
  OocMatrix<double> m(cache, 8, 8);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j) m.set(i, j, static_cast<double>(i * 8 + j));
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j)
      ASSERT_EQ(m.get(i, j), static_cast<double>(i * 8 + j));
  EXPECT_GT(cache.stats().page_outs, 0u);
}

TEST(Starved, OocEngineOnSingleFrameMatchesInCore) {
  const index_t n = 16;
  SplitMix64 g(2);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 5.0);
    init(i, i) = 0;
  }
  Matrix<double> ref = init;
  run_igep(ref, MinPlusF{}, FullSet{n}, {4});
  PageCache cache(128, 128);  // single 16-double frame
  OocMatrix<double> ooc(cache, n, n);
  ooc.load(init);
  run_igep(ooc, MinPlusF{}, FullSet{n}, {4});
  EXPECT_TRUE(approx_equal(ref, ooc.to_matrix(), 0.0));
}

TEST(Starved, PageLargerThanMatrix) {
  PageCache cache(1 << 16, 1 << 16);  // one page holds everything
  OocMatrix<double> m(cache, 10, 10);
  m.set(9, 9, 42.0);
  EXPECT_EQ(m.get(9, 9), 42.0);
  EXPECT_LE(cache.stats().page_ins, 1u);
}

TEST(Starved, IdealCacheMinimumCapacity) {
  IdealCache c(64, 64);  // exactly one block
  for (int r = 0; r < 3; ++r) {
    c.access(0, true);
    c.access(1024, false);
  }
  EXPECT_EQ(c.stats().misses, 6u);
  EXPECT_GE(c.stats().dirty_writebacks, 3u);
}

// --- Scheduler stress -------------------------------------------------------

TEST(PoolStress, DeepNestedRecursionManyTasks) {
  WorkStealingPool pool(8);
  std::atomic<long> count{0};
  // Fork a full binary tree of depth 12 (4095 internal groups).
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 0) {
      count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    WsTaskGroup g(&pool);
    g.run([&, depth] { rec(depth - 1); });
    g.run([&, depth] { rec(depth - 1); });
    g.wait();
  };
  rec(12);
  EXPECT_EQ(count.load(), 4096);
}

TEST(PoolStress, ManyGroupsSequentially) {
  WorkStealingPool pool(4);
  long total = 0;
  std::atomic<long> hits{0};
  for (int round = 0; round < 200; ++round) {
    WsTaskGroup g(&pool);
    for (int t = 0; t < 5; ++t) g.run([&] { hits.fetch_add(1); });
    g.wait();
    total += 5;
  }
  EXPECT_EQ(hits.load(), total);
}

TEST(DagSchedule, EveryLeafExactlyOnceWithValidProcs) {
  std::vector<LeafBox> boxes;
  auto dag = build_igep_dag(DagProblem::LU, 64, 8, &boxes);
  for (int p : {1, 3, 8}) {
    auto sched = dag_schedule(dag, p);
    ASSERT_EQ(sched.size(), boxes.size());
    std::vector<int> seen(boxes.size(), 0);
    double prev = -1;
    for (const auto& s : sched) {
      ASSERT_GE(s.leaf_id, 0);
      ASSERT_LT(static_cast<std::size_t>(s.leaf_id), boxes.size());
      ASSERT_GE(s.proc, 0);
      ASSERT_LT(s.proc, p);
      ASSERT_GE(s.start, prev);  // ordered by start time
      prev = s.start;
      seen[static_cast<std::size_t>(s.leaf_id)] += 1;
    }
    for (int c : seen) EXPECT_EQ(c, 1);
  }
}

// --- Misc robustness --------------------------------------------------------

// Zero and negative thread counts clamp to one thread, which runs every
// task inline on the caller.
TEST(Misc, ThreadPoolClampsThreadCount) {
  for (int requested : {0, -3}) {
    WorkStealingPool pool(requested);
    EXPECT_EQ(pool.threads(), 1);
    int count = 0;
    WsTaskGroup g(&pool);
    for (int i = 0; i < 3; ++i) g.run([&] { ++count; });
    EXPECT_EQ(count, 3);  // already ran, before wait()
    g.wait();
  }
}

TEST(Misc, PeakProbePositiveAndCached) {
  double p1 = measured_peak_gflops(0.05);
  double p2 = measured_peak_gflops(0.05);
  EXPECT_GT(p1, 0.0);
  EXPECT_EQ(p1, p2);  // cached
}

TEST(Misc, TableCsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  std::string path = ::testing::TempDir() + "gep_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,x");
  EXPECT_EQ(l3, "2,y");
  std::remove(path.c_str());
}

TEST(Misc, PrngChanceExtremes) {
  SplitMix64 g(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(g.chance(0.0));
    EXPECT_TRUE(g.chance(1.0));
  }
}

TEST(Misc, ZBlockedSingleTile) {
  const index_t n = 8;
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = static_cast<double>(i - j);
  ZBlocked<double> z(n, n);  // bs == n: one tile, row-major inside
  z.load(m);
  EXPECT_EQ(z.tile(0, 0)[3 * n + 5], m(3, 5));
  Matrix<double> back(n, n, 0.0);
  z.store(back);
  EXPECT_TRUE(approx_equal(m, back));
}

TEST(Misc, BlasGemmZeroDims) {
  double x = 5;
  blas::dgemm(0, 0, 0, 1.0, &x, 1, &x, 1, &x, 1);  // must be a no-op
  EXPECT_EQ(x, 5);
  blas::dgemm(1, 1, 0, 1.0, &x, 1, &x, 1, &x, 1);
  EXPECT_EQ(x, 5);
}

TEST(Misc, FwInfinityPlumbing) {
  // Disconnected graph: distances stay at the sentinel, no overflow.
  const index_t n = 8;
  Matrix<double> d(n, n, apps::kInfDist);
  for (index_t i = 0; i < n; ++i) d(i, i) = 0;
  d(0, 1) = 1.0;  // only one edge
  apps::floyd_warshall(d, Engine::IGep, {2, 1});
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_GE(d(1, 0), apps::kInfDist / 2);
  EXPECT_GE(d(2, 5), apps::kInfDist / 2);
}

}  // namespace
}  // namespace gep
