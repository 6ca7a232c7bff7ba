// Scheduler tests: the Cilk-style work-stealing pool (the one pool),
// its fork-join invoker, the typed I-GEP drivers' DAG schedule on it —
// same results as the sequential run — plus the matrix file I/O utility.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/task_graph.hpp"
#include "util/matrix_io.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

TEST(WorkStealing, RunsAllTasks) {
  WorkStealingPool pool(4);
  std::atomic<int> count{0};
  WsTaskGroup g(&pool);
  for (int i = 0; i < 200; ++i) g.run([&] { count.fetch_add(1); });
  g.wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(WorkStealing, NestedForkJoinTree) {
  WorkStealingPool pool(4);
  std::atomic<int> leaves{0};
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    WsTaskGroup g(&pool);
    g.run([&, depth] { rec(depth - 1); });
    g.run([&, depth] { rec(depth - 1); });
    g.wait();
  };
  rec(10);
  EXPECT_EQ(leaves.load(), 1024);
}

TEST(WorkStealing, SingleThreadInline) {
  WorkStealingPool pool(1);
  int count = 0;
  WsTaskGroup g(&pool);
  for (int i = 0; i < 7; ++i) g.run([&] { ++count; });
  g.wait();
  EXPECT_EQ(count, 7);
  EXPECT_EQ(pool.steal_count(), 0);
}

TEST(ParInvoker, SequentialFallbackPreservesOrder) {
  WorkStealingPool one(1);
  WorkStealingPool* none = nullptr;
  for (WorkStealingPool* pool : {none, &one}) {
    WsParInvoker inv{pool};
    std::vector<int> order;
    inv.invoke([&] { order.push_back(1); }, [&] { order.push_back(2); },
               [&] { order.push_back(3); });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
}

TEST(WorkStealing, TaskExceptionPropagatesToWait) {
  WorkStealingPool pool(4);
  {
    WsTaskGroup g(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      g.run([&, i] {
        ran.fetch_add(1);
        if (i == 5) throw std::runtime_error("leaf failed");
      });
    }
    EXPECT_THROW(g.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 16);  // a throwing task doesn't kill the group
  }
  // The pool survives a failed group: no hung pending count, no dead
  // worker — later groups run normally.
  WsTaskGroup g2(&pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) g2.run([&] { count.fetch_add(1); });
  g2.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealing, GroupDestructorSwallowsUnclaimedException) {
  WorkStealingPool pool(2);
  {
    WsTaskGroup g(&pool);
    g.run([] { throw std::runtime_error("never waited on"); });
    // ~WsTaskGroup drains without rethrowing (destructors cannot throw).
  }
  SUCCEED();
}

TEST(WorkStealing, PromptWakeupAfterPush) {
  // Regression for the lost-wakeup race: push() used to notify without
  // synchronizing with the sleep mutex, so a worker that had evaluated
  // the wait predicate (pending == 0) but not yet blocked missed the
  // notify and slept its full 1 ms timeout. With the fix, a parked
  // worker must pick up freshly pushed work well under the timeout on
  // average. The submitting thread only OBSERVES (no try_run_one help),
  // so the latency measured is the worker's.
  WorkStealingPool pool(2);
  const int kIters = 50;
  std::vector<double> lat_ms;
  for (int it = 0; it < kIters; ++it) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // park worker
    std::atomic<bool> done{false};
    WsTaskGroup g(&pool);
    const auto t0 = std::chrono::steady_clock::now();
    g.run([&] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    lat_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    g.wait();
  }
  // Median, not mean: robust to preemption outliers on loaded CI boxes,
  // while a systematic lost-wakeup (every affected push waits out the
  // full 1 ms timeout) still drags it over the bound.
  std::sort(lat_ms.begin(), lat_ms.end());
  const double median_ms = lat_ms[kIters / 2];
  EXPECT_LT(median_ms, 0.9) << "worst " << lat_ms.back() << " ms";
  EXPECT_LT(lat_ms.back(), 500.0);
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

// The DAG schedule on the pool against the sequential run (the fork-
// join schedule on the pool is ParallelIGep, test_parallel.cpp).
class WsIGep : public ::testing::TestWithParam<int> {};

TEST_P(WsIGep, FloydWarshallMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 128, bs = 16;
  Matrix<double> init = random_dist(n, 5);
  Matrix<double> seq = init, par = init;
  RowMajorStore<double> sst{seq.data(), n, bs};
  igep_floyd_warshall(nullptr, sst, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> pst{par.data(), n, bs};
  igep_floyd_warshall(&pool, pst, n, {bs, Runtime::Dag});
  EXPECT_TRUE(approx_equal(seq, par, 0.0)) << "threads=" << threads;
}

TEST_P(WsIGep, LUMatchesSequential) {
  const int threads = GetParam();
  const index_t n = 128, bs = 16;
  SplitMix64 g(8);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
    init(i, i) += n + 2.0;
  }
  Matrix<double> a = init, b = init;
  RowMajorStore<double> sa{a.data(), n, bs};
  igep_lu(nullptr, sa, n, {bs, Runtime::ForkJoin});

  WorkStealingPool pool(threads);
  RowMajorStore<double> sb{b.data(), n, bs};
  igep_lu(&pool, sb, n, {bs, Runtime::Dag});
  EXPECT_TRUE(approx_equal(a, b, 0.0)) << "threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, WsIGep, ::testing::Values(2, 4, 8));

TEST(WorkStealing, StressManyGroups) {
  WorkStealingPool pool(8);
  std::atomic<long> hits{0};
  for (int round = 0; round < 100; ++round) {
    WsTaskGroup g(&pool);
    for (int t = 0; t < 8; ++t) g.run([&] { hits.fetch_add(1); });
    g.wait();
  }
  EXPECT_EQ(hits.load(), 800);
}

// Shutdown-race regression (run under TSan in CI): tearing a pool down
// right after — or even during — a burst of submissions must never hang
// a parked worker or lose a task. Exercises the ~WorkStealingPool
// stop_-under-sleep_mu_ publish and the pending-before-push ordering
// against workers that are mid-predicate on the sleep fence.
TEST(WorkStealing, StressPoolConstructDestroyLoop) {
  for (int round = 0; round < 60; ++round) {
    const int threads = 1 + round % 8;
    WorkStealingPool pool(threads);
    std::atomic<int> count{0};
    WsTaskGroup g(&pool);
    // A tiny burst: workers are likely still parked from construction,
    // so push() hits the just-woken / still-sleeping window, and the
    // destructor follows immediately after wait().
    for (int t = 0; t < threads + 2; ++t) {
      g.run([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    g.wait();
    ASSERT_EQ(count.load(), threads + 2) << "round " << round;
  }
  // Destruction with NO work ever submitted: workers die from the
  // parked state off the stop_ flag alone.
  for (int round = 0; round < 60; ++round) {
    WorkStealingPool pool(1 + round % 8);
  }
}

// --- Matrix file I/O ---------------------------------------------------------

TEST(MatrixIo, RoundTripExact) {
  SplitMix64 g(3);
  Matrix<double> m(7, 5);
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 5; ++j) m(i, j) = g.uniform(-1e6, 1e6) / 3.0;
  std::string path = ::testing::TempDir() + "gep_mio_test.txt";
  ASSERT_TRUE(write_matrix_file(path, m));
  auto back = read_matrix_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(approx_equal(m, *back, 0.0));  // max_digits10 round-trips
  std::remove(path.c_str());
}

TEST(MatrixIo, MissingAndMalformedFiles) {
  EXPECT_FALSE(read_matrix_file("does-not-exist-anywhere.txt").has_value());
  std::string path = ::testing::TempDir() + "gep_mio_bad.txt";
  {
    std::ofstream out(path);
    out << "3 3\n1 2 3\n4 5\n";  // truncated
  }
  EXPECT_FALSE(read_matrix_file(path).has_value());
  {
    std::ofstream out(path);
    out << "-2 4\n";  // bad dims
  }
  EXPECT_FALSE(read_matrix_file(path).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gep
