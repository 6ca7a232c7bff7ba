#include <gtest/gtest.h>

#include "cachesim/ideal_cache.hpp"
#include "cachesim/set_assoc_cache.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

TEST(IdealCache, SequentialScanMissesOncePerBlock) {
  IdealCache c(1024, 64);  // 16 blocks
  auto data = make_aligned<double>(1024);  // block-aligned buffer
  for (std::size_t i = 0; i < 1024; ++i) {
    c.access(reinterpret_cast<std::uintptr_t>(&data[i]), false);
  }
  // 1024 doubles / 8 per 64B block = 128 compulsory misses.
  EXPECT_EQ(c.stats().misses, 1024u * 8 / 64);
  EXPECT_EQ(c.stats().accesses, 1024u);
}

TEST(IdealCache, WorkingSetWithinCapacityHitsAfterWarmup) {
  IdealCache c(64 * 16, 64);
  auto data = make_aligned<double>(8 * 16);  // exactly 16 aligned blocks
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < 8u * 16u; ++i) {
      c.access(reinterpret_cast<std::uintptr_t>(&data[i]), false);
    }
  }
  EXPECT_EQ(c.stats().misses, 16u);  // compulsory only
}

TEST(IdealCache, LruEvictsLeastRecent) {
  IdealCache c(128, 64);  // 2 blocks
  c.access(0, false);     // block 0
  c.access(64, false);    // block 1
  c.access(0, false);     // touch 0 (now MRU)
  c.access(128, false);   // block 2: evicts 1
  c.access(0, false);     // hit
  EXPECT_EQ(c.stats().misses, 3u);
  c.access(64, false);  // miss again (was evicted)
  EXPECT_EQ(c.stats().misses, 4u);
}

TEST(IdealCache, DirtyWritebackCounted) {
  IdealCache c(64, 64);  // single block
  c.access(0, true);     // write block 0
  c.access(64, false);   // evicts dirty block 0 -> writeback
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
  c.flush();
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);  // block 1 clean
  EXPECT_EQ(c.stats().io(), 2u + 1u);
}

TEST(SetAssoc, DirectMappedConflictMisses) {
  // 2 sets x 1 way, 64B lines: addresses 0 and 128 conflict (same set).
  SetAssocCache c({128, 64, 1});
  for (int r = 0; r < 4; ++r) {
    c.access(0, false);
    c.access(128, false);
  }
  EXPECT_EQ(c.stats().misses, 8u);  // ping-pong, never hits
  // Same trace in a 2-way cache of equal size: only compulsory misses.
  SetAssocCache c2({128, 64, 2});
  for (int r = 0; r < 4; ++r) {
    c2.access(0, false);
    c2.access(128, false);
  }
  EXPECT_EQ(c2.stats().misses, 2u);
}

TEST(SetAssoc, FullyAssociativeMatchesIdealCache) {
  SplitMix64 g(6);
  SetAssocCache sa({4096, 64, 0});  // ways=0 -> fully associative
  IdealCache ic(4096, 64);
  for (int t = 0; t < 20000; ++t) {
    std::uintptr_t addr = static_cast<std::uintptr_t>(g.below(32768));
    bool write = g.chance(0.3);
    sa.access(addr, write);
    ic.access(addr, write);
  }
  EXPECT_EQ(sa.stats().misses, ic.stats().misses);
}

TEST(Hierarchy, L2SeesOnlyL1Misses) {
  CacheHierarchy h(CacheGeometry{1024, 64, 2}, CacheGeometry{8192, 64, 8});
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.access(reinterpret_cast<std::uintptr_t>(&data[i]), false);
  }
  EXPECT_EQ(h.l2_stats().accesses, h.l1_stats().misses);
  EXPECT_LE(h.l2_stats().misses, h.l1_stats().misses);
}

// --- The paper's I/O bounds, measured -------------------------------------

// GEP ~ n^3/B vs I-GEP ~ n^3/(B sqrt(M)): at n=128, M=32KB, B=64 the
// ratio should be large (sqrt(M in elements) ~ 64-ish up to constants).
TEST(IoBounds, IGepIncursFarFewerMissesThanGep) {
  const index_t n = 128;
  const std::uint64_t M = 32 * 1024, B = 64;
  Matrix<double> a(n, n, 1.0), b(n, n, 1.0);

  IdealCache cg(M, B);
  TracedAccess<double, IdealCache> ta(a.data(), n, &cg, 0);
  run_gep(ta, MinPlusF{}, FullSet{n});

  IdealCache ci(M, B);
  TracedAccess<double, IdealCache> tb(b.data(), n, &ci, 0);
  run_igep(tb, MinPlusF{}, FullSet{n}, {8});

  EXPECT_GT(cg.stats().misses, 6 * ci.stats().misses)
      << "GEP=" << cg.stats().misses << " I-GEP=" << ci.stats().misses;
}

// Scaling in M: I-GEP misses should shrink ~1/sqrt(M); GEP's barely move.
TEST(IoBounds, IGepMissesScaleWithSqrtM) {
  const index_t n = 128;
  const std::uint64_t B = 64;
  auto igep_misses = [&](std::uint64_t M) {
    Matrix<double> m(n, n, 1.0);
    IdealCache c(M, B);
    TracedAccess<double, IdealCache> t(m.data(), n, &c, 0);
    run_igep(t, MinPlusF{}, FullSet{n}, {4});
    return c.stats().misses;
  };
  const auto m16 = igep_misses(16 * 1024);
  const auto m64 = igep_misses(64 * 1024);
  // 4x the cache -> ~2x fewer misses (allow generous slack for constants
  // and boundary effects).
  const double ratio =
      static_cast<double>(m16) / static_cast<double>(std::max<std::uint64_t>(m64, 1));
  EXPECT_GT(ratio, 1.4) << "m16=" << m16 << " m64=" << m64;
}

// Scaling in B at fixed M: both GEP and I-GEP misses ~ 1/B.
TEST(IoBounds, MissesScaleInverselyWithB) {
  const index_t n = 64;
  const std::uint64_t M = 16 * 1024;
  auto misses = [&](std::uint64_t B) {
    Matrix<double> m(n, n, 1.0);
    IdealCache c(M, B);
    TracedAccess<double, IdealCache> t(m.data(), n, &c, 0);
    run_gep(t, MinPlusF{}, FullSet{n});
    return c.stats().misses;
  };
  const auto b64 = misses(64);
  const auto b256 = misses(256);
  const double ratio = static_cast<double>(b64) / static_cast<double>(b256);
  EXPECT_GT(ratio, 2.5) << "b64=" << b64 << " b256=" << b256;
  EXPECT_LT(ratio, 6.0);
}

}  // namespace
}  // namespace gep
