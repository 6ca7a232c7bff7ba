#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "gep/iterative.hpp"
#include "parallel/dag_sim.hpp"
#include "parallel/task_graph.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// The thread pool is WorkStealingPool; these are its flat fork-join
// shapes (test_schedulers.cpp has the steal-heavy and stress ones).
TEST(ThreadPool, RunsAllTasks) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  WsTaskGroup g(&pool);
  for (int i = 0; i < 100; ++i) g.run([&] { count.fetch_add(1); });
  g.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedForkJoin) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  WsTaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&] {
      WsTaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) inner.run([&] { count.fetch_add(1); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SingleThreadInline) {
  WorkStealingPool pool(1);
  int count = 0;  // no atomics needed: everything runs inline
  WsTaskGroup g(&pool);
  for (int i = 0; i < 10; ++i) g.run([&] { ++count; });
  EXPECT_EQ(count, 10);  // already ran, before wait()
  g.wait();
  EXPECT_EQ(count, 10);
}

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

class ParallelIGep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelIGep, FloydWarshallMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 128, bs = 16;
  Matrix<double> init = random_dist(n, 31);
  Matrix<double> seq = init, par = init;
  RowMajorStore<double> sst{seq.data(), n, bs};
  igep_floyd_warshall(nullptr, sst, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> pst{par.data(), n, bs};
  igep_floyd_warshall(&pool, pst, n, {bs, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(seq, par, 0.0)) << "threads=" << threads;
}

TEST_P(ParallelIGep, LUMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 128, bs = 16;
  Matrix<double> init = random_dd(n, 33);
  Matrix<double> seq = init, par = init;
  RowMajorStore<double> sst{seq.data(), n, bs};
  igep_lu(nullptr, sst, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> pst{par.data(), n, bs};
  igep_lu(&pool, pst, n, {bs, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(seq, par, 0.0)) << "threads=" << threads;
}

TEST_P(ParallelIGep, GaussianMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 64, bs = 8;
  Matrix<double> init = random_dd(n, 35);
  Matrix<double> seq = init, par = init;
  RowMajorStore<double> sst{seq.data(), n, bs};
  igep_gaussian(nullptr, sst, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> pst{par.data(), n, bs};
  igep_gaussian(&pool, pst, n, {bs, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(seq, par, 0.0)) << "threads=" << threads;
}

TEST_P(ParallelIGep, MatMulMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 64, bs = 8;
  SplitMix64 g(8);
  Matrix<double> a(n, n), b(n, n), cs(n, n, 0.0), cp(n, n, 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1, 1);
      b(i, j) = g.uniform(-1, 1);
    }
  RowMajorStore<double> csst{cs.data(), n, bs};
  RowMajorStore<const double> ast{a.data(), n, bs};
  RowMajorStore<const double> bst{b.data(), n, bs};
  igep_matmul(nullptr, csst, ast, bst, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> cpst{cp.data(), n, bs};
  igep_matmul(&pool, cpst, ast, bst, n, {bs, Runtime::ForkJoin});
  EXPECT_TRUE(approx_equal(cs, cp, 0.0)) << "threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelIGep, ::testing::Values(2, 3, 4, 8));

// --- DAG simulator -------------------------------------------------------

TEST(DagSim, WorkMatchesUpdateCounts) {
  const index_t n = 64, bs = 8;
  auto fw = build_igep_dag(DagProblem::FloydWarshall, n, bs);
  EXPECT_DOUBLE_EQ(dag_work(fw), static_cast<double>(n) * n * n);
  auto mm = build_igep_dag(DagProblem::MatMul, n, bs);
  EXPECT_DOUBLE_EQ(dag_work(mm), static_cast<double>(n) * n * n);
  // GE: sum over k of (n-1-k)^2.
  double ge_expected = 0;
  for (index_t k = 0; k < n; ++k)
    ge_expected += static_cast<double>((n - 1 - k)) * (n - 1 - k);
  auto ge = build_igep_dag(DagProblem::Gaussian, n, bs);
  EXPECT_DOUBLE_EQ(dag_work(ge), ge_expected);
  // LU: sum over k of (n-1-k)*(n-k).
  double lu_expected = 0;
  for (index_t k = 0; k < n; ++k)
    lu_expected += static_cast<double>(n - 1 - k) * (n - k);
  auto lu = build_igep_dag(DagProblem::LU, n, bs);
  EXPECT_DOUBLE_EQ(dag_work(lu), lu_expected);
}

TEST(DagSim, MakespanMonotoneAndBracketed) {
  const index_t n = 128, bs = 16;
  for (auto prob : {DagProblem::FloydWarshall, DagProblem::MatMul,
                    DagProblem::Gaussian, DagProblem::LU}) {
    auto dag = build_igep_dag(prob, n, bs);
    const double work = dag_work(dag);
    const double span = dag_span(dag);
    EXPECT_LE(span, work);
    for (int p : {1, 2, 4, 8, 16}) {
      double t = dag_makespan(dag, p);
      EXPECT_GE(t, work / p - 1e-6);  // lower bound
      EXPECT_GE(t, span - 1e-6);
      EXPECT_LE(t, work / p + span + 1e-6);  // Brent / greedy bound
    }
    EXPECT_NEAR(dag_makespan(dag, 1), work, work * 1e-12);
  }
}

TEST(DagSim, MatMulHasMoreParallelismThanGE) {
  const index_t n = 256, bs = 16;
  auto mm = build_igep_dag(DagProblem::MatMul, n, bs);
  auto ge = build_igep_dag(DagProblem::Gaussian, n, bs);
  auto fw = build_igep_dag(DagProblem::FloydWarshall, n, bs);
  // Average parallelism work/span: MM >> FW and MM >> GE (Section 3).
  double mm_par = dag_work(mm) / dag_span(mm);
  double fw_par = dag_work(fw) / dag_span(fw);
  double ge_par = dag_work(ge) / dag_span(ge);
  EXPECT_GT(mm_par, fw_par);
  EXPECT_GT(mm_par, ge_par);
  // Speedup at p=8 mirrors Fig. 12's ordering: MM best.
  double mm_s8 = dag_work(mm) / dag_makespan(mm, 8);
  double ge_s8 = dag_work(ge) / dag_makespan(ge, 8);
  EXPECT_GT(mm_s8, ge_s8);
}

// Span recurrence check: T_inf = O(n log^2 n) for I-GEP (Theorem 3.1).
// With unit leaf costs at base 1 the span should grow ~ n log^2 n; check
// the growth ratio between n and 2n stays well below the work ratio 8.
TEST(DagSim, SpanGrowsSubcubically) {
  double span32 = dag_span(build_igep_dag(DagProblem::FloydWarshall, 32, 1));
  double span64 = dag_span(build_igep_dag(DagProblem::FloydWarshall, 64, 1));
  double ratio = span64 / span32;
  EXPECT_LT(ratio, 3.5);  // ~2 * (log64/log32)^2 ≈ 2.9, far below 8
  EXPECT_GT(ratio, 1.8);
}

// Fig. 6's stage lists, pinned apart from their one writer
// (detail::typed_rec): for n = 4 at base 1, the fork-join DAG's span and
// its p = 1 schedule (the sequential leaf order) as "i0 j0 k0" triples.
// The constants were generated from a separate, hand-written copy of the
// stage lists; a change here changes Fig. 12.
TEST(DagSim, StageListsGolden) {
  struct Golden {
    DagProblem prob;
    double span;
    const char* order;
  };
  const Golden golden[] = {
      {DagProblem::FloydWarshall, 24,
       "000 010 100 110 111 101 011 001 020 030 120 130 121 131 021 "
       "031 200 300 210 310 211 311 201 301 220 230 320 330 221 231 "
       "321 331 222 232 322 332 333 323 233 223 202 212 302 312 303 "
       "313 203 213 022 122 032 132 033 133 023 123 002 012 102 112 "
       "003 013 103 113"},
      {DagProblem::Gaussian, 5,
       "000 010 100 110 111 020 030 120 130 121 131 200 300 210 310 "
       "211 311 220 230 320 330 221 231 321 331 222 232 322 332 333"},
      {DagProblem::LU, 9,
       "000 010 100 110 111 020 030 120 130 121 131 200 300 210 310 "
       "211 311 220 230 320 330 221 231 321 331 222 232 322 332 333"},
      {DagProblem::MatMul, 4,
       "000 010 100 110 001 011 101 111 020 030 120 130 021 031 121 "
       "131 200 210 300 310 201 211 301 311 220 230 320 330 221 231 "
       "321 331 002 012 102 112 003 013 103 113 022 032 122 132 023 "
       "033 123 133 202 212 302 312 203 213 303 313 222 232 322 332 "
       "223 233 323 333"},
  };
  for (const Golden& g : golden) {
    std::vector<LeafBox> boxes;
    const SPNode dag = build_igep_dag(g.prob, 4, 1, &boxes);
    EXPECT_DOUBLE_EQ(dag_span(dag), g.span);
    std::string order;
    for (const ScheduledLeaf& s : dag_schedule(dag, 1)) {
      const LeafBox& b = boxes[static_cast<std::size_t>(s.leaf_id)];
      if (!order.empty()) order += ' ';
      order += std::to_string(b.i0) + std::to_string(b.j0) +
               std::to_string(b.k0);
    }
    EXPECT_EQ(order, g.order) << "prob=" << static_cast<int>(g.prob);
  }
}

}  // namespace
}  // namespace gep
