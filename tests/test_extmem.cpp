#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "apps/apps.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

TEST(BlockFile, RoundTripAndSparseReads) {
  BlockFile f(4096);
  std::vector<char> w(4096, 'x'), r(4096, 0);
  f.write_page(3, w.data());
  f.read_page(3, r.data());
  EXPECT_EQ(w, r);
  // Never-written page reads back as zeros.
  f.read_page(7, r.data());
  for (char c : r) EXPECT_EQ(c, 0);
  EXPECT_EQ(f.pages_written(), 1u);
  EXPECT_EQ(f.pages_read(), 2u);
}

TEST(PageCache, HitsAndFaults) {
  PageCache cache(4 * 4096, 4096);
  int f = cache.register_file(16);
  void* p0 = cache.pin(f, 0, true);
  std::memset(p0, 1, 4096);
  void* p0again = cache.pin(f, 0, false);
  EXPECT_EQ(p0, p0again);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().page_ins, 1u);
}

TEST(PageCache, EvictionWritesBackDirtyPages) {
  PageCache cache(2 * 4096, 4096);  // 2 frames
  int f = cache.register_file(16);
  char* p = static_cast<char*>(cache.pin(f, 0, true));
  p[0] = 42;
  cache.pin(f, 1, false);
  cache.pin(f, 2, false);  // evicts page 0 (dirty -> writeback)
  EXPECT_GE(cache.stats().page_outs, 1u);
  char* back = static_cast<char*>(cache.pin(f, 0, false));
  EXPECT_EQ(back[0], 42);
}

TEST(PageCache, IoWaitAccumulatesPerModel) {
  DiskModel model{10.0, 100.0};  // 10ms seek, 100MB/s
  PageCache cache(4096, 4096, model);
  int f = cache.register_file(4);
  cache.pin(f, 0, false);
  cache.pin(f, 1, false);  // evict clean page 0
  // Two page-ins of 4096B: 2*(0.010 + 4096/1e8).
  EXPECT_NEAR(cache.stats().io_wait_seconds, 2 * (0.010 + 4096.0 / 1e8),
              1e-9);
}

TEST(PageCache, StatsAccountingUnderEvictionPressure) {
  PageCache cache(2 * 4096, 4096);  // 2 frames, 8-page working set
  int f = cache.register_file(8);
  // Cyclic sweep with writes: constant eviction + writeback traffic.
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      char* d = static_cast<char*>(cache.pin(f, p, true));
      d[0] = static_cast<char>(p);
    }
  }
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.pins, 24u);
  // Invariant: every pin is either a hit or a fault.
  EXPECT_EQ(s.hits + s.misses(), s.pins);
  // A 2-frame cache sweeping 8 pages can never hit.
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses(), 24u);
  EXPECT_EQ(s.page_ins, 24u);
  // Every fault after the first two repurposes a frame.
  EXPECT_EQ(s.evictions, 22u);
  // All evicted pages were dirty.
  EXPECT_EQ(s.page_outs, 22u);
}

TEST(PageCache, ResetStatsClearsCountersButNotContents) {
  PageCache cache(2 * 4096, 4096);
  int f = cache.register_file(8);
  char* d = static_cast<char*>(cache.pin(f, 0, true));
  d[0] = 77;
  for (std::uint64_t p = 1; p < 6; ++p) cache.pin(f, p, false);
  ASSERT_GT(cache.stats().pins, 0u);
  ASSERT_GT(cache.stats().evictions, 0u);

  cache.reset_stats();
  PageCacheStats s = cache.stats();
  EXPECT_EQ(s.pins, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses(), 0u);
  EXPECT_EQ(s.page_ins, 0u);
  EXPECT_EQ(s.page_outs, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.io_wait_seconds, 0.0);

  // Cached data survives the reset and stats re-accumulate from zero.
  char* back = static_cast<char*>(cache.pin(f, 0, false));
  EXPECT_EQ(back[0], 77);
  s = cache.stats();
  EXPECT_EQ(s.pins, 1u);
  EXPECT_EQ(s.hits + s.misses(), 1u);
}

TEST(PageCache, MultipleFilesDoNotCollide) {
  PageCache cache(8 * 4096, 4096);
  int f1 = cache.register_file(4);
  int f2 = cache.register_file(4);
  char* a = static_cast<char*>(cache.pin(f1, 0, true));
  a[0] = 1;
  char* b = static_cast<char*>(cache.pin(f2, 0, true));
  b[0] = 2;
  EXPECT_EQ(static_cast<char*>(cache.pin(f1, 0, false))[0], 1);
  EXPECT_EQ(static_cast<char*>(cache.pin(f2, 0, false))[0], 2);
}

TEST(OocMatrix, GetSetRoundTripAcrossEvictions) {
  PageCache cache(2 * 256, 256);  // tiny: 2 frames of 32 doubles
  OocMatrix<double> m(cache, 32, 32);
  SplitMix64 g(1);
  Matrix<double> ref(32, 32);
  for (index_t i = 0; i < 32; ++i)
    for (index_t j = 0; j < 32; ++j) ref(i, j) = g.next_double();
  m.load(ref);
  Matrix<double> back = m.to_matrix();
  EXPECT_TRUE(approx_equal(ref, back, 0.0));
  EXPECT_GT(cache.stats().page_outs, 0u);  // forced write-backs happened
}

TEST(OocMatrix, MemoSurvivesInterleavedMatrices) {
  PageCache cache(2 * 256, 256);
  OocMatrix<double> a(cache, 16, 16), b(cache, 16, 16);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      a.set(i, j, 1.0 + static_cast<double>(i));
      b.set(i, j, -2.0 - static_cast<double>(j));
    }
  }
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      EXPECT_EQ(a.get(i, j), 1.0 + static_cast<double>(i));
      EXPECT_EQ(b.get(i, j), -2.0 - static_cast<double>(j));
    }
  }
}

// The same generic engines must produce identical results out-of-core.
TEST(OocEngines, GepMatchesInCore) {
  const index_t n = 32;
  SplitMix64 g(2);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 9.0);
    init(i, i) = 0;
  }
  Matrix<double> ref = init;
  run_gep(ref, MinPlusF{}, FullSet{n});

  PageCache cache(n * 8 * 4, n * 8);  // 4 row-pages cached
  OocMatrix<double> ooc(cache, n, n);
  ooc.load(init);
  run_gep(ooc, MinPlusF{}, FullSet{n});
  EXPECT_TRUE(approx_equal(ref, ooc.to_matrix(), 0.0));
}

TEST(OocEngines, IGepMatchesInCore) {
  const index_t n = 64;
  SplitMix64 g(3);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 9.0);
    init(i, i) = 0;
  }
  Matrix<double> ref = init;
  run_igep(ref, MinPlusF{}, FullSet{n}, {8});

  PageCache cache(1024 * 8, 512);
  OocMatrix<double> ooc(cache, n, n);
  ooc.load(init);
  run_igep(ooc, MinPlusF{}, FullSet{n}, {8});
  EXPECT_TRUE(approx_equal(ref, ooc.to_matrix(), 0.0));
}

TEST(OocEngines, CGepWithOocAuxMatchesInCore) {
  const index_t n = 16;
  SplitMix64 g(4);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1.0, 1.0);
  Matrix<double> ref = init;
  run_gep(ref, SumF{}, FullSet{n});

  PageCache cache(8 * 256, 256);
  OocMatrix<double> c(cache, n, n), u0(cache, n, n), u1(cache, n, n),
      v0(cache, n, n), v1(cache, n, n);
  c.load(init);
  u0.copy_from(c);
  u1.copy_from(c);
  v0.copy_from(c);
  v1.copy_from(c);
  run_cgep_with_aux(c, u0, u1, v0, v1, SumF{}, FullSet{n}, {1});
  EXPECT_TRUE(approx_equal(ref, c.to_matrix(), 0.0));
}

TEST(OocTiledMatrix, RoundTripAndTileGeometry) {
  PageCache cache(8 * 512, 512);  // 64-double pages -> 8x8 tiles
  OocTiledMatrix<double> m(cache, 20, 36);
  EXPECT_EQ(m.tile_side(), 8);
  SplitMix64 g(9);
  Matrix<double> ref(20, 36);
  for (index_t i = 0; i < 20; ++i)
    for (index_t j = 0; j < 36; ++j) ref(i, j) = g.next_double();
  m.load(ref);
  EXPECT_TRUE(approx_equal(ref, m.to_matrix(), 0.0));
}

TEST(OocTiledMatrix, EnginesMatchRowMajorLayout) {
  const index_t n = 64;
  SplitMix64 g(10);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 9.0);
    init(i, i) = 0;
  }
  PageCache c1(16 * 512, 512), c2(16 * 512, 512);
  OocMatrix<double> rm(c1, n, n);
  OocTiledMatrix<double> tm(c2, n, n);
  rm.load(init);
  tm.load(init);
  run_igep(rm, MinPlusF{}, FullSet{n}, {8});
  run_igep(tm, MinPlusF{}, FullSet{n}, {8});
  EXPECT_TRUE(approx_equal(rm.to_matrix(), tm.to_matrix(), 0.0));
}

TEST(OocTiledMatrix, FewerIosThanRowMajorForRecursiveEngine) {
  const index_t n = 128;
  Matrix<double> init(n, n, 1.0);
  const std::uint64_t B = 2048, M = 8 * B;  // starved cache
  PageCache c1(M, B), c2(M, B);
  OocMatrix<double> rm(c1, n, n);
  OocTiledMatrix<double> tm(c2, n, n);
  rm.load(init);
  tm.load(init);
  c1.reset_stats();
  c2.reset_stats();
  run_igep(rm, MinPlusF{}, FullSet{n}, {8});
  run_igep(tm, MinPlusF{}, FullSet{n}, {8});
  EXPECT_LT(c2.stats().io() * 2, c1.stats().io())
      << "tiled=" << c2.stats().io() << " rm=" << c1.stats().io();
}

// I/O volume: out-of-core I-GEP must transfer far fewer pages than GEP
// at equal (M, B) — the content of Fig. 7.
TEST(OocEngines, IGepDoesFarLessIoThanGep) {
  const index_t n = 64;
  const std::uint64_t B = 128;    // 16 doubles per page
  const std::uint64_t M = 64 * B; // 64 frames: a base-case box fits, rows don't
  Matrix<double> init(n, n, 1.0);

  PageCache cg(M, B);
  OocMatrix<double> a(cg, n, n);
  a.load(init);
  cg.reset_stats();
  run_gep(a, MinPlusF{}, FullSet{n});
  const auto gep_io = cg.stats().io();

  PageCache ci(M, B);
  OocMatrix<double> b(ci, n, n);
  b.load(init);
  ci.reset_stats();
  run_igep(b, MinPlusF{}, FullSet{n}, {8});
  const auto igep_io = ci.stats().io();

  EXPECT_GT(gep_io, 5 * igep_io) << "GEP=" << gep_io << " IGEP=" << igep_io;
}

}  // namespace
}  // namespace gep

namespace ooc_typed_tests {

// NOTE: appended suite — the typed out-of-core engine (pinned tiles).
using namespace gep;

TEST(PagePin, LocksFramesAgainstEviction) {
  PageCache cache(2 * 256, 256);  // two frames
  int f = cache.register_file(8);
  auto pin0 = cache.acquire(f, 0, true);
  std::memset(pin0.data(), 7, 256);
  // Fault two more pages: frame of page 0 must survive (pinned).
  cache.pin(f, 1, false);
  cache.pin(f, 2, false);
  EXPECT_EQ(static_cast<char*>(pin0.data())[0], 7);
  pin0.release();
  // After release the frame is evictable again.
  cache.pin(f, 3, false);
  cache.pin(f, 4, false);
  char* back = static_cast<char*>(cache.pin(f, 0, false));
  EXPECT_EQ(back[0], 7);  // was written back and reloaded
}

TEST(PagePin, AllFramesPinnedThrows) {
  PageCache cache(2 * 256, 256);
  int f = cache.register_file(8);
  auto p0 = cache.acquire(f, 0, false);
  auto p1 = cache.acquire(f, 1, false);
  EXPECT_THROW(cache.pin(f, 2, false), std::runtime_error);
}

TEST(PagePin, SelfMoveAssignmentKeepsPin) {
  PageCache cache(2 * 256, 256);
  int f = cache.register_file(8);
  auto pin = cache.acquire(f, 0, true);
  std::memset(pin.data(), 9, 256);
  PageCache::PagePin& alias = pin;  // dodge -Wself-move
  pin = std::move(alias);
  ASSERT_NE(pin.data(), nullptr);  // self-move must not drop the pin
  // Frame still locked: fault the other frame twice, page 0 survives.
  cache.pin(f, 1, false);
  cache.pin(f, 2, false);
  EXPECT_EQ(static_cast<char*>(pin.data())[0], 9);
}

TEST(PagePin, MovedFromAndReleasedPinsReadNull) {
  PageCache cache(2 * 256, 256);
  int f = cache.register_file(8);
  auto a = cache.acquire(f, 0, false);
  auto b = std::move(a);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_NE(b.data(), nullptr);
  b.release();
  EXPECT_EQ(b.data(), nullptr);
}

TEST(PageCache, OutOfRangePageOrFileThrows) {
  PageCache cache(4 * 256, 256);
  int f = cache.register_file(8);
  EXPECT_THROW(cache.pin(f, 8, false), std::out_of_range);
  EXPECT_THROW(cache.acquire(f, 1ULL << 40, false), std::out_of_range);
  EXPECT_THROW(cache.pin(f + 1, 0, false), std::out_of_range);
  EXPECT_THROW(cache.pin(-1, 0, false), std::out_of_range);
  EXPECT_THROW(cache.prefetch(f, 8), std::out_of_range);
  // In-range accesses still work.
  EXPECT_NO_THROW(cache.pin(f, 7, false));
  // A file larger than the 40-bit key space is clamped to it.
  int g = cache.register_file(1ULL << 50);
  EXPECT_THROW(cache.pin(g, 1ULL << 40, false), std::out_of_range);
}

TEST(PageCache, PrefetchWithoutWorkerIsCountedDropped) {
  PageCache cache(4 * 256, 256);
  int f = cache.register_file(8);
  EXPECT_FALSE(cache.async_io_enabled());
  cache.prefetch(f, 3);
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.prefetch_issued, 1u);
  EXPECT_EQ(s.prefetch_dropped, 1u);
  EXPECT_EQ(s.page_ins, 0u);  // no I/O happened
}

TEST(OocTyped, FloydWarshallMatchesInCore) {
  const index_t n = 128;
  SplitMix64 g(21);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(1.0, 9.0);
    init(i, i) = 0;
  }
  const index_t bs = 16;
  Matrix<double> ref = init;
  RowMajorStore<double> st{ref.data(), n, bs};
  igep_floyd_warshall(nullptr, st, n, {bs, Runtime::ForkJoin});

  PageCache cache(8 * bs * bs * 8, bs * bs * 8);  // 8 tile frames
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(init);
  ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = false});
  EXPECT_TRUE(approx_equal(ref, m.to_matrix(), 0.0));
}

TEST(OocTyped, LUMatchesInCore) {
  const index_t n = 64;
  SplitMix64 g(22);
  Matrix<double> init(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) init(i, j) = g.uniform(-1, 1);
    init(i, i) += n + 2.0;
  }
  const index_t bs = 8;
  Matrix<double> ref = init;
  RowMajorStore<double> st{ref.data(), n, bs};
  igep_lu(nullptr, st, n, {bs, Runtime::ForkJoin});

  PageCache cache(8 * bs * bs * 8, bs * bs * 8);
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(init);
  ooc_igep_lu_dag(m, nullptr, {.prefetch = false});
  EXPECT_TRUE(approx_equal(ref, m.to_matrix(), 0.0));
}

TEST(OocTyped, MatMulMatchesInCore) {
  const index_t n = 64, bs = 8;
  SplitMix64 g(23);
  Matrix<double> am(n, n), bm(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      am(i, j) = g.uniform(-1, 1);
      bm(i, j) = g.uniform(-1, 1);
    }
  Matrix<double> ref(n, n, 0.0);
  RowMajorStore<double> cst{ref.data(), n, bs};
  RowMajorStore<const double> ast{am.data(), n, bs};
  RowMajorStore<const double> bst{bm.data(), n, bs};
  igep_matmul(nullptr, cst, ast, bst, n, {bs, Runtime::ForkJoin});

  PageCache cache(16 * bs * bs * 8, bs * bs * 8);
  OocTiledMatrix<double> c(cache, n, n, bs), a(cache, n, n, bs),
      b(cache, n, n, bs);
  a.load(am);
  b.load(bm);
  c.load(Matrix<double>(n, n, 0.0));
  ooc_igep_matmul_dag(c, a, b, nullptr, {.prefetch = false});
  EXPECT_TRUE(approx_equal(ref, c.to_matrix(), 0.0));
}

TEST(OocTyped, BlockGranularIoMatchesGenericEngine) {
  // Same recursion, so the typed engine's page I/O should be no worse
  // than the generic per-element engine on the same layout.
  const index_t n = 128, bs = 16;
  Matrix<double> init(n, n, 1.0);
  const std::uint64_t B = bs * bs * 8, M = 8 * B;

  PageCache c1(M, B);
  OocTiledMatrix<double> m1(c1, n, n, bs);
  m1.load(init);
  c1.reset_stats();
  ooc_igep_floyd_warshall_dag(m1, nullptr, {.prefetch = false});
  const auto typed_io = c1.stats().io();

  PageCache c2(M, B);
  OocTiledMatrix<double> m2(c2, n, n, bs);
  m2.load(init);
  c2.reset_stats();
  run_igep(m2, MinPlusF{}, FullSet{n}, {bs});
  const auto generic_io = c2.stats().io();

  EXPECT_LE(typed_io, generic_io + generic_io / 4)
      << "typed=" << typed_io << " generic=" << generic_io;
}

TEST(OocTyped, RejectsBadShapes) {
  PageCache cache(8 * 512, 512);
  OocTiledMatrix<double> rect(cache, 16, 32, 8);
  EXPECT_THROW(ooc_igep_floyd_warshall_dag(rect, nullptr),
               std::invalid_argument);
}

// Any n: with a 64-wide tile the drivers clip their edge tiles and write
// the bytes of in-core Engine::IGep (base 64), with no pool and on 4
// workers.
TEST(OocTyped, AnyNMatchesInCoreIGepBytes) {
  const index_t bs = 64;
  const std::uint64_t B = bs * bs * sizeof(double);
  auto same_bytes = [](const Matrix<double>& a, const Matrix<double>& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) * sizeof(double)) ==
               0;
  };
  for (index_t n : {1, 65, 100, 200}) {
    SplitMix64 g(31 + static_cast<std::uint64_t>(n));
    Matrix<double> dist(n, n), dd(n, n), am(n, n), bm(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        dist(i, j) = g.uniform(1.0, 9.0);
        dd(i, j) = g.uniform(-1.0, 1.0);
        am(i, j) = g.uniform(-1.0, 1.0);
        bm(i, j) = g.uniform(-1.0, 1.0);
      }
      dist(i, i) = 0.0;
      dd(i, i) += static_cast<double>(n) + 2.0;
    }
    Matrix<double> fw = dist, lu = dd, mm(n, n, 0.0);
    apps::floyd_warshall(fw, apps::Engine::IGep, {bs});
    apps::lu_decompose(lu, apps::Engine::IGep, {bs});
    apps::multiply_add(mm, am, bm, apps::Engine::IGep, {bs});
    for (int workers : {0, 4}) {
      SCOPED_TRACE("n " + std::to_string(n) + " workers " +
                   std::to_string(workers));
      std::unique_ptr<WorkStealingPool> pool;
      if (workers > 0) pool = std::make_unique<WorkStealingPool>(workers);
      PageCache cache(24 * B, B);
      OocTiledMatrix<double> m(cache, n, n, bs);
      m.load(dist);
      ooc_igep_floyd_warshall_dag(m, pool.get());
      EXPECT_TRUE(same_bytes(fw, m.to_matrix())) << "fw";
      m.load(dd);
      ooc_igep_lu_dag(m, pool.get());
      EXPECT_TRUE(same_bytes(lu, m.to_matrix())) << "lu";
      OocTiledMatrix<double> c(cache, n, n, bs), a(cache, n, n, bs),
          b(cache, n, n, bs);
      c.load(Matrix<double>(n, n, 0.0));
      a.load(am);
      b.load(bm);
      ooc_igep_matmul_dag(c, a, b, pool.get());
      EXPECT_TRUE(same_bytes(mm, c.to_matrix())) << "mm";
    }
  }
}

}  // namespace ooc_typed_tests
