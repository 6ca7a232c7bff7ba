// Concurrency tests for the thread-safe page cache and the parallel
// out-of-core typed engine. These are the tests the CI sanitizer job
// (ASan + TSan) runs — keep them free of benign races: the cache
// synchronizes frame METADATA, while page CONTENTS are the caller's to
// divide (here: thread-owned pages for writes, shared pages read-only).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

TEST(PageCacheConcurrent, PinAcquireEvictStress) {
  const std::uint64_t B = 256;
  PageCache cache(24 * B, B);  // far fewer frames than hot pages
  const int kThreads = 8;
  const std::uint64_t kOwnPages = 8, kSharedPages = 64;
  int f_own = cache.register_file(kThreads * kOwnPages);
  int f_shared = cache.register_file(kSharedPages);
  // Pre-fill the shared read-only file before the threads start.
  for (std::uint64_t p = 0; p < kSharedPages; ++p) {
    auto pin = cache.acquire(f_shared, p, /*for_write=*/true);
    std::memset(pin.data(), static_cast<int>(p & 0x7f), B);
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(0xabcdef ^ static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < 400; ++iter) {
        // Write a thread-owned page (no other thread touches it).
        const std::uint64_t own =
            static_cast<std::uint64_t>(t) * kOwnPages + rng.below(kOwnPages);
        {
          auto pin = cache.acquire(f_own, own, /*for_write=*/true);
          std::memset(pin.data(), t + 1, B);
        }
        // Read a shared page; contents must match the pre-filled fill.
        const std::uint64_t sp = rng.below(kSharedPages);
        {
          auto pin = cache.acquire(f_shared, sp, /*for_write=*/false);
          const char* d = static_cast<const char*>(pin.data());
          if (d[0] != static_cast<char>(sp & 0x7f) ||
              d[B - 1] != static_cast<char>(sp & 0x7f)) {
            failures.fetch_add(1);
          }
        }
        // Hold two pins at once across an eviction-pressure access.
        auto a = cache.acquire(f_shared, rng.below(kSharedPages), false);
        auto b = cache.acquire(f_own, own, false);
        if (static_cast<const char*>(b.data())[0] != t + 1) {
          failures.fetch_add(1);
        }
        if (iter % 16 == 0) cache.prefetch(f_shared, rng.below(kSharedPages));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses(), s.pins);
  // Every thread-owned page must have survived its last write.
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t p = 0; p < kOwnPages; ++p) {
      auto pin =
          cache.acquire(f_own, static_cast<std::uint64_t>(t) * kOwnPages + p,
                        /*for_write=*/false);
      const char c = static_cast<const char*>(pin.data())[0];
      EXPECT_TRUE(c == 0 || c == t + 1) << "page " << p << " of thread " << t;
    }
  }
}

TEST(PageCacheConcurrent, StressWithAsyncWorker) {
  const std::uint64_t B = 256;
  PageCache cache(16 * B, B);
  cache.enable_async_io();
  int f = cache.register_file(128);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(0x1234 ^ static_cast<std::uint64_t>(t));
      for (int iter = 0; iter < 300; ++iter) {
        const std::uint64_t p = rng.below(128);
        cache.prefetch(f, rng.below(128));
        auto pin = cache.acquire(f, p, /*for_write=*/false);
        (void)pin;
      }
    });
  }
  for (auto& th : threads) th.join();
  cache.disable_async_io();
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.pins, 4u * 300u);
  EXPECT_EQ(s.hits + s.misses(), s.pins);
}

TEST(PageCachePrefetch, PrefetchedPageCountsAsHit) {
  PageCache cache(16 * 4096, 4096);
  int f = cache.register_file(64);
  cache.enable_async_io();
  cache.prefetch(f, 7);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (cache.stats().prefetch_completed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(cache.stats().prefetch_completed, 1u) << "worker never ran";
  { auto pin = cache.acquire(f, 7, false); }
  cache.disable_async_io();
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.pins, 1u);
  EXPECT_EQ(s.hits, 1u);  // the fault happened off the critical path
  EXPECT_EQ(s.prefetch_hits, 1u);
  EXPECT_EQ(s.page_ins, 1u);
  EXPECT_DOUBLE_EQ(s.prefetch_hit_rate(), 1.0);
}

TEST(PageCachePrefetch, WorkerWritesBackDirtyColdFrames) {
  PageCache cache(8 * 4096, 4096);
  int f = cache.register_file(64);
  {  // dirty one page, then make it the LRU tail
    auto pin = cache.acquire(f, 0, /*for_write=*/true);
    std::memset(pin.data(), 1, 4096);
  }
  for (std::uint64_t p = 1; p < 5; ++p) cache.pin(f, p, false);
  cache.enable_async_io();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (cache.stats().writebacks_async < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cache.disable_async_io();
  EXPECT_GE(cache.stats().writebacks_async, 1u);
  // The write-behind must not have corrupted the page.
  auto pin = cache.acquire(f, 0, false);
  EXPECT_EQ(static_cast<const char*>(pin.data())[0], 1);
}

// The task graph's edges keep every tile's update order, so the parallel
// engine must produce bit-identical results — with and without prefetch
// racing the foreground for frames.
TEST(OocTypedParallel, LuMatchesSequentialBitForBit) {
  const index_t n = 64, bs = 8;
  SplitMix64 g(77);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
    init(i, i) += static_cast<double>(n);
  }
  const std::uint64_t B = bs * bs * 8;
  PageCache c_seq(16 * B, B);
  OocTiledMatrix<double> m_seq(c_seq, n, n, bs);
  m_seq.load(init);
  ooc_igep_lu_dag(m_seq, nullptr, {.prefetch = false});
  const Matrix<double> ref = m_seq.to_matrix();

  for (bool prefetch : {false, true}) {
    PageCache cache(48 * B, B);  // 4 pins x 8 workers + headroom
    OocTiledMatrix<double> m(cache, n, n, bs);
    m.load(init);
    if (prefetch) cache.enable_async_io();
    WorkStealingPool pool(8);
    ooc_igep_lu_dag(m, &pool, {.prefetch = prefetch});
    if (prefetch) cache.disable_async_io();
    const Matrix<double> got = m.to_matrix();
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        ASSERT_EQ(got(i, j), ref(i, j))
            << "prefetch=" << prefetch << " at (" << i << "," << j << ")";
  }
}

TEST(OocTypedParallel, FloydWarshallParallelPrefetchMatches) {
  const index_t n = 128, bs = 16;
  SplitMix64 g(91);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 100.0);
    init(i, i) = 0.0;
  }
  const std::uint64_t B = bs * bs * 8;
  PageCache c_seq(16 * B, B);
  OocTiledMatrix<double> m_seq(c_seq, n, n, bs);
  m_seq.load(init);
  ooc_igep_floyd_warshall_dag(m_seq, nullptr, {.prefetch = false});
  const Matrix<double> ref = m_seq.to_matrix();

  PageCache cache(32 * B, B);
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(init);
  cache.enable_async_io();
  WorkStealingPool pool(4);
  ooc_igep_floyd_warshall_dag(m, &pool, {.prefetch = true});
  cache.disable_async_io();
  const Matrix<double> got = m.to_matrix();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) ASSERT_EQ(got(i, j), ref(i, j));
}

}  // namespace
}  // namespace gep
