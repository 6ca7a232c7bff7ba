// Fault-tolerance matrix: injected I/O faults, checksum validation,
// retry/backoff, PageCache recovery invariants, async-worker
// degradation, and numeric breakdown guards.
//
// Every suite name starts with "Fault" so CI can run the whole matrix
// with `ctest -R 'Fault'`. Injection seeds default to 1 and are
// overridable via GEP_FAULT_SEED (the CI job runs seeds 1..3); every
// probabilistic test pairs its probabilities with a retry budget deep
// enough that the survival guarantee holds for ANY seed.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "extmem/fault_injector.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "extmem/robust_store.hpp"
#include "apps/linear_solver.hpp"
#include "gep/numeric_guard.hpp"
#include "obs/watchdog.hpp"
#include "parallel/work_stealing.hpp"
#include "util/crc32c.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

// The stall watchdog stays armed across the whole fault matrix: the
// injected transients (default 2ms latency spikes, retry storms, CRC
// re-reads) must never be mistaken for a stall at a realistic
// threshold, for ANY seed CI feeds through GEP_FAULT_SEED.
class ArmedWatchdog : public ::testing::Environment {
 public:
  void SetUp() override {
    baseline_ = obs::Watchdog::stalls_detected();
    obs::Watchdog::Options o;
    o.threshold_ms = 2000.0;
    o.dump_on_stall = false;
    started_ = obs::Watchdog::start(o);
  }
  void TearDown() override {
    if (!started_) return;  // GEP_OBS=0 or already running elsewhere
    obs::Watchdog::stop();
    EXPECT_EQ(obs::Watchdog::stalls_detected(), baseline_)
        << "injected faults must not trip the stall watchdog";
  }

 private:
  std::uint64_t baseline_ = 0;
  bool started_ = false;
};

const ::testing::Environment* const kArmedWatchdog =
    ::testing::AddGlobalTestEnvironment(new ArmedWatchdog);

std::uint64_t env_seed() {
  const char* e = std::getenv("GEP_FAULT_SEED");
  if (e == nullptr || *e == '\0') return 1;
  return std::strtoull(e, nullptr, 10);
}

constexpr std::uint64_t kPage = 256;

// RobustStore over FaultInjector over BlockFile, with the injector
// still reachable for targeted faults.
struct Stack {
  FaultInjector* inj;
  RobustStore store;

  Stack(FaultConfig cfg, RetryPolicy retry, bool checksums = true)
      : inj(nullptr), store(make(cfg, &inj), retry, checksums) {}

  static std::unique_ptr<BlockStore> make(FaultConfig cfg,
                                          FaultInjector** out) {
    auto fi = std::make_unique<FaultInjector>(
        std::make_unique<BlockFile>(kPage), cfg);
    *out = fi.get();
    return fi;
  }
};

std::vector<char> pattern_page(std::uint64_t tag) {
  std::vector<char> buf(kPage);
  SplitMix64 g(tag * 2654435761u + 1);
  for (char& c : buf) c = static_cast<char>(g.next());
  return buf;
}

TEST(FaultCrc32c, KnownVectorAndSeedChaining) {
  // The canonical CRC32C check string.
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(s, 0), 0u);
  // Incremental (seed-chained) computation matches one-shot.
  const std::uint32_t head = crc32c(s, 4);
  EXPECT_EQ(crc32c(s + 4, 5, head), crc32c(s, 9));
  // Any bit flip changes the sum.
  std::vector<char> buf = pattern_page(7);
  const std::uint32_t clean = crc32c(buf.data(), buf.size());
  buf[100] = static_cast<char>(buf[100] ^ 0x10);
  EXPECT_NE(crc32c(buf.data(), buf.size()), clean);
}

TEST(FaultInjector, DeterministicForAFixedSeed) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.p_read_error = 0.3;
  cfg.p_bitflip_read = 0.3;
  auto run = [&] {
    FaultInjector fi(std::make_unique<BlockFile>(kPage), cfg);
    std::vector<char> buf(kPage);
    std::uint64_t errors = 0;
    for (int i = 0; i < 200; ++i) {
      try {
        fi.read_page(static_cast<std::uint64_t>(i % 8), buf.data());
      } catch (const IoError&) {
        ++errors;
      }
    }
    const FaultInjectorStats s = fi.stats();
    EXPECT_EQ(s.read_errors, errors);
    return s;
  };
  const FaultInjectorStats a = run();
  const FaultInjectorStats b = run();
  EXPECT_EQ(a.read_errors, b.read_errors);
  EXPECT_EQ(a.bitflips, b.bitflips);
  EXPECT_GT(a.read_errors + a.bitflips, 0u);
}

TEST(FaultInjector, TypedErrorsCarryPageAndErrno) {
  FaultConfig cfg;
  cfg.install = true;
  FaultInjector fi(std::make_unique<BlockFile>(kPage), cfg);
  fi.set_hard_fault(5, /*reads=*/true, /*writes=*/true);
  std::vector<char> buf(kPage);
  try {
    fi.read_page(5, buf.data());
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), IoError::Op::Read);
    EXPECT_EQ(e.page(), 5u);
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_FALSE(e.transient());
    const std::string what = e.what();
    EXPECT_NE(what.find("page 5"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EIO)), std::string::npos) << what;
  }
  EXPECT_THROW(fi.write_page(5, buf.data()), IoError);
  fi.clear_hard_faults();
  EXPECT_NO_THROW(fi.write_page(5, buf.data()));
}

TEST(FaultRobustStore, TransientErrorsAreRetriedToSuccess) {
  FaultConfig cfg;
  cfg.seed = env_seed();
  cfg.p_read_error = 0.25;
  cfg.p_write_error = 0.25;
  RetryPolicy retry;
  retry.max_attempts = 12;  // 0.25^12: unreachable for any seed
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  for (std::uint64_t p = 0; p < 16; ++p) {
    const std::vector<char> w = pattern_page(p);
    s.store.write_page(p, w.data());
  }
  std::vector<char> r(kPage);
  for (std::uint64_t p = 0; p < 16; ++p) {
    s.store.read_page(p, r.data());
    EXPECT_EQ(r, pattern_page(p)) << "page " << p;
  }
  EXPECT_GT(s.store.stats().retries, 0u);
  EXPECT_EQ(s.store.stats().hard_failures, 0u);
}

TEST(FaultRobustStore, ChecksumCatchesEveryAtRestCorruption) {
  // Zero false negatives: 64 independent single-bit at-rest flips, all
  // below the checksum layer, every one must surface as CorruptPageError.
  FaultConfig cfg;
  cfg.install = true;
  RetryPolicy retry;
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  std::vector<char> r(kPage);
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    const std::vector<char> w = pattern_page(trial);
    s.store.write_page(trial, w.data());
    // Spread bit positions across the page: first, last, and a stride
    // covering every byte-in-word and word-in-page combination.
    const std::uint64_t bit =
        trial == 0 ? 0
                   : (trial == 1 ? kPage * 8 - 1 : (trial * 131) % (kPage * 8));
    s.inj->corrupt_stored_page(trial, bit);
    try {
      s.store.read_page(trial, r.data());
      FAIL() << "corruption escaped at trial " << trial << " bit " << bit;
    } catch (const CorruptPageError& e) {
      EXPECT_EQ(e.page(), trial);
      EXPECT_NE(e.expected_crc(), e.actual_crc());
      EXPECT_FALSE(e.transient());
    }
  }
  EXPECT_GE(s.store.stats().crc_failures, 64u);
}

TEST(FaultRobustStore, InFlightBitflipsAreCuredByReread) {
  FaultConfig cfg;
  cfg.seed = env_seed();
  cfg.p_bitflip_read = 0.25;
  RetryPolicy retry;
  retry.max_attempts = 12;
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  const std::vector<char> w = pattern_page(3);
  s.store.write_page(0, w.data());
  std::vector<char> r(kPage);
  for (int i = 0; i < 200; ++i) {
    s.store.read_page(0, r.data());
    ASSERT_EQ(r, w) << "read " << i;
  }
  // ~50 of 200 reads flip in flight; every affected op was cured. A
  // retry can itself flip (several crc_failures inside one op), so
  // recoveries counts ops, failures counts mismatches.
  const RobustStoreStats st = s.store.stats();
  EXPECT_GT(st.crc_failures, 0u);
  EXPECT_GT(st.crc_recoveries, 0u);
  EXPECT_LE(st.crc_recoveries, st.crc_failures);
  EXPECT_EQ(st.hard_failures, 0u);
}

TEST(FaultRobustStore, HardFaultThrowsTypedWithoutRetry) {
  FaultConfig cfg;
  cfg.install = true;
  RetryPolicy retry;
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  s.inj->set_hard_fault(2, /*reads=*/true, /*writes=*/false);
  std::vector<char> buf(kPage);
  EXPECT_THROW(s.store.read_page(2, buf.data()), IoError);
  // Non-transient: one attempt, no retries burned.
  EXPECT_EQ(s.store.stats().retries, 0u);
  EXPECT_EQ(s.store.stats().hard_failures, 1u);
}

TEST(FaultRobustStore, BurstBeyondBudgetExhaustsRetries) {
  FaultConfig cfg;
  cfg.p_read_error = 1.0;
  cfg.error_burst = 1 << 20;  // effectively hard, but transient-typed
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  std::vector<char> buf(kPage);
  try {
    s.store.read_page(0, buf.data());
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_TRUE(e.transient());  // each individual failure was transient
  }
  EXPECT_EQ(s.store.stats().retries, 3u);  // budget fully spent
  EXPECT_EQ(s.store.stats().hard_failures, 1u);
}

TEST(FaultRobustStore, TornWriteLeavesStaleCrcDetectedOnRead) {
  // max_attempts = 1: a tear is never repaired by the retry loop, so
  // the mixed-content page stays on disk with the PREVIOUS write's
  // checksum in the sidecar — exactly the crash-mid-write scenario the
  // next read must catch.
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.p_torn_write = 0.5;
  RetryPolicy retry;
  retry.max_attempts = 1;
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  // Unique content per write so any tear mixes two DIFFERENT payloads.
  // Keep writing until a tear lands on top of a successful write.
  int successes = 0;
  bool torn_over_good_data = false;
  for (int i = 0; i < 200 && !torn_over_good_data; ++i) {
    const std::vector<char> w = pattern_page(100 + static_cast<unsigned>(i));
    try {
      s.store.write_page(0, w.data());
      ++successes;
    } catch (const IoError& e) {
      EXPECT_TRUE(e.transient());
      if (successes > 0) torn_over_good_data = true;
    }
  }
  ASSERT_TRUE(torn_over_good_data);
  std::vector<char> r(kPage);
  EXPECT_THROW(s.store.read_page(0, r.data()), CorruptPageError);
}

TEST(FaultRobustStore, TornWriteRepairedByRetry) {
  FaultConfig cfg;
  cfg.seed = env_seed();
  cfg.p_torn_write = 0.4;
  RetryPolicy retry;
  retry.max_attempts = 16;  // 0.4^16 ~ 4e-7: safe for any seed
  retry.backoff_us = 0;
  Stack s(cfg, retry);
  std::vector<char> r(kPage);
  // 32 writes: P(no tear at all) = 0.6^32 ~ 8e-8 for any seed.
  for (std::uint64_t p = 0; p < 32; ++p) {
    const std::vector<char> w = pattern_page(p + 100);
    s.store.write_page(p, w.data());
    s.store.read_page(p, r.data());
    EXPECT_EQ(r, w) << "page " << p;
  }
  EXPECT_GT(s.inj->stats().torn_writes, 0u);
  EXPECT_GT(s.store.stats().retries, 0u);
}

TEST(FaultRobustStore, ChecksumsOffAcceptsCorruptData) {
  // Documents the knob: with checksums disabled the corruption flows
  // through silently — the reason RobustOptions defaults them on.
  FaultConfig cfg;
  cfg.install = true;
  RetryPolicy retry;
  retry.backoff_us = 0;
  Stack s(cfg, retry, /*checksums=*/false);
  const std::vector<char> w = pattern_page(5);
  s.store.write_page(0, w.data());
  s.inj->corrupt_stored_page(0, 77);
  std::vector<char> r(kPage);
  EXPECT_NO_THROW(s.store.read_page(0, r.data()));
  EXPECT_NE(r, w);
}

// ---- PageCache recovery invariants (satellite b) ----

RobustOptions install_only() {
  RobustOptions r;
  r.faults.install = true;
  r.retry.backoff_us = 0;
  return r;
}

TEST(FaultPageCache, EvictionWritebackFailureKeepsVictimDirtyAndIntact) {
  PageCache cache(2 * kPage, kPage, {}, install_only());
  const int f = cache.register_file(16);
  FaultInjector* inj = cache.fault_injector(f);
  ASSERT_NE(inj, nullptr);

  char* p0 = static_cast<char*>(cache.pin(f, 0, true));
  std::memset(p0, 42, kPage);
  cache.pin(f, 1, false);

  // Page 0's frame is the LRU victim; its write-back now hard-fails.
  inj->set_hard_fault(0, /*reads=*/false, /*writes=*/true);
  EXPECT_THROW(cache.pin(f, 2, false), IoError);
  EXPECT_GE(cache.stats().writeback_failures, 1u);

  // Invariant: the victim kept its mapping, its data, and its dirty bit
  // — and no frame leaked io_busy (the next fault would hang if so).
  char* back = static_cast<char*>(cache.pin(f, 0, false));
  EXPECT_EQ(back[0], 42);
  EXPECT_EQ(cache.stats().hits, 1u) << "page 0 must still be resident";

  // After the fault clears, the eviction (and its write-back) succeeds.
  inj->clear_hard_faults();
  EXPECT_NO_THROW(cache.pin(f, 2, false));
  EXPECT_NO_THROW(cache.flush());
  char* reread = static_cast<char*>(cache.pin(f, 0, false));
  EXPECT_EQ(reread[0], 42) << "dirty data survived the failed eviction";
}

TEST(FaultPageCache, ReadFaultInvalidatesFrameAndStaysUsable) {
  PageCache cache(2 * kPage, kPage, {}, install_only());
  const int f = cache.register_file(16);
  FaultInjector* inj = cache.fault_injector(f);
  ASSERT_NE(inj, nullptr);
  inj->set_hard_fault(3, /*reads=*/true, /*writes=*/false);
  EXPECT_THROW(cache.pin(f, 3, false), IoError);
  EXPECT_GE(cache.stats().io_hard_failures, 1u);
  // The failed frame was released: the cache still works end to end.
  inj->clear_hard_faults();
  char* p = static_cast<char*>(cache.pin(f, 3, true));
  p[0] = 9;
  cache.pin(f, 4, false);
  cache.pin(f, 5, false);  // evict page 3 (write-back now succeeds)
  EXPECT_EQ(static_cast<char*>(cache.pin(f, 3, false))[0], 9);
}

TEST(FaultPageCache, CorruptPagePropagatesAsTypedError) {
  PageCache cache(4 * kPage, kPage, {}, install_only());
  const int f = cache.register_file(16);
  FaultInjector* inj = cache.fault_injector(f);
  char* p = static_cast<char*>(cache.pin(f, 0, true));
  std::memset(p, 1, kPage);
  cache.flush();
  cache.pin(f, 1, false);
  cache.pin(f, 2, false);
  cache.pin(f, 3, false);
  cache.pin(f, 4, false);  // page 0 evicted (clean after flush)
  inj->corrupt_stored_page(0, 1234);
  EXPECT_THROW(cache.pin(f, 0, false), CorruptPageError);
  EXPECT_GE(cache.stats().crc_failures, 1u);
}

TEST(FaultPageCache, WorkerDegradesToSyncAfterRepeatedFailures) {
  RobustOptions r;
  r.faults.p_read_error = 1.0;
  r.faults.error_burst = 1 << 20;  // every read fails, transient-typed
  r.retry.max_attempts = 2;
  r.retry.backoff_us = 0;
  PageCache cache(8 * kPage, kPage, {}, r);
  const int f = cache.register_file(64);
  cache.enable_async_io();
  EXPECT_FALSE(cache.async_degraded());
  // Feed the worker failing prefetches until it gives up.
  for (int round = 0; round < 200 && !cache.async_degraded(); ++round) {
    for (std::uint64_t p = 0; p < 16; ++p) {
      cache.prefetch(f, (static_cast<std::uint64_t>(round) * 16 + p) % 64);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(cache.async_degraded());
  const PageCacheStats s = cache.stats();
  EXPECT_GE(s.prefetch_errors, 8u);  // kWorkerDegradeThreshold
  EXPECT_EQ(s.async_degraded, 1u);
  // Degraded: later hints are dropped, not queued (queue never wedges).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // drain
  cache.prefetch(f, 63);
  EXPECT_EQ(cache.prefetch_queue_depth(), 0u);
  cache.disable_async_io();
  // Re-enabling clears the degradation (fresh start).
  cache.enable_async_io();
  EXPECT_FALSE(cache.async_degraded());
  cache.disable_async_io();
}

// A write-behind that fails must not be retried back to back: with a
// dead store every attempt throws at once, and a worker that loops
// straight back to the same dirty frame holds mu_ almost without a gap,
// starving the workers that need it to pin tiles. That starvation was
// the CkptKillResume.LuDagAsyncMid livelock (crash leg: the store dies
// with a dirty frame in the LRU tail; a pool worker waits on mu_
// forever, and the checkpoint gate waits for that worker's leaf). The
// worker backs off after a failure and stops write-behind once
// degraded, so over 100 ms it makes at most kWorkerDegradeThreshold
// (8) attempts; the looping worker made about ten thousand.
TEST(FaultPageCache, FailingWriteBehindBacksOff) {
  PageCache cache(8 * kPage, kPage, {}, install_only());
  const int f = cache.register_file(8);
  FaultInjector* inj = cache.fault_injector(f);
  ASSERT_NE(inj, nullptr);
  inj->set_hard_fault(0, /*reads=*/false, /*writes=*/true);
  static_cast<char*>(cache.pin(f, 0, /*for_write=*/true))[0] = 1;
  cache.enable_async_io();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t attempts = inj->stats().write_errors;
  cache.disable_async_io();
  EXPECT_GE(attempts, 1u) << "the worker never tried the write-behind";
  EXPECT_LE(attempts, 8u) << "write-behind retried back to back";
  EXPECT_TRUE(cache.async_degraded());
}

// ---- End-to-end out-of-core algorithms under injected faults ----

Matrix<double> fw_init(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 9.0);
    m(i, i) = 0;
  }
  return m;
}

Matrix<double> lu_init(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

bool bit_identical(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols()) *
                         sizeof(double)) == 0;
}

// Transient-fault posture used by the end-to-end legs: every fault mode
// on at rate >= 1e-3 (the acceptance bar), retry budget deep enough that
// an operation failing outright is out of reach for any seed.
RobustOptions transient_faults() {
  RobustOptions r;
  r.faults.seed = env_seed();
  r.faults.p_read_error = 0.02;
  r.faults.p_write_error = 0.02;
  r.faults.p_bitflip_read = 0.02;
  r.faults.p_torn_write = 0.01;
  r.retry.max_attempts = 10;
  r.retry.backoff_us = 0;
  return r;
}

TEST(FaultOoc, FloydWarshallBitIdenticalUnderTransientFaults) {
  const index_t n = 64, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  const Matrix<double> init = fw_init(n, 31);

  PageCache clean(8 * B, B);
  OocTiledMatrix<double> m0(clean, n, n, bs);
  m0.load(init);
  ooc_igep_floyd_warshall_dag(m0, nullptr, {.prefetch = false});
  const Matrix<double> ref = m0.to_matrix();

  for (bool async : {false, true}) {
    PageCache cache(8 * B, B, {}, transient_faults());
    OocTiledMatrix<double> m(cache, n, n, bs);
    m.load(init);
    if (async) cache.enable_async_io();
    ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = async});
    if (async) cache.disable_async_io();
    EXPECT_TRUE(bit_identical(ref, m.to_matrix())) << "async=" << async;
    const PageCacheStats s = cache.stats();
    EXPECT_GT(s.io_retries + s.crc_failures, 0u)
        << "faults must actually have fired (async=" << async << ")";
    EXPECT_EQ(s.io_hard_failures, 0u);
  }
}

TEST(FaultOoc, LuBitIdenticalUnderTransientFaults) {
  const index_t n = 64, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  const Matrix<double> init = lu_init(n, 32);

  PageCache clean(8 * B, B);
  OocTiledMatrix<double> m0(clean, n, n, bs);
  m0.load(init);
  ooc_igep_lu_dag(m0, nullptr, {.prefetch = false});
  const Matrix<double> ref = m0.to_matrix();

  for (bool async : {false, true}) {
    PageCache cache(8 * B, B, {}, transient_faults());
    OocTiledMatrix<double> m(cache, n, n, bs);
    m.load(init);
    if (async) cache.enable_async_io();
    ooc_igep_lu_dag(m, nullptr, {.prefetch = async});
    if (async) cache.disable_async_io();
    EXPECT_TRUE(bit_identical(ref, m.to_matrix())) << "async=" << async;
    EXPECT_GT(cache.stats().io_retries + cache.stats().crc_failures, 0u);
  }
}

TEST(FaultOoc, MatmulBitIdenticalUnderTransientFaults) {
  const index_t n = 64, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  const Matrix<double> am = lu_init(n, 33), bm = lu_init(n, 34);
  const Matrix<double> zero(n, n, 0.0);

  PageCache clean(16 * B, B);
  OocTiledMatrix<double> c0(clean, n, n, bs), a0(clean, n, n, bs),
      b0(clean, n, n, bs);
  a0.load(am);
  b0.load(bm);
  c0.load(zero);
  ooc_igep_matmul_dag(c0, a0, b0, nullptr, {.prefetch = false});
  const Matrix<double> ref = c0.to_matrix();

  for (bool async : {false, true}) {
    PageCache cache(16 * B, B, {}, transient_faults());
    OocTiledMatrix<double> c(cache, n, n, bs), a(cache, n, n, bs),
        b(cache, n, n, bs);
    a.load(am);
    b.load(bm);
    c.load(zero);
    if (async) cache.enable_async_io();
    ooc_igep_matmul_dag(c, a, b, nullptr, {.prefetch = async});
    if (async) cache.disable_async_io();
    EXPECT_TRUE(bit_identical(ref, c.to_matrix())) << "async=" << async;
    EXPECT_GT(cache.stats().io_retries + cache.stats().crc_failures, 0u);
  }
}

TEST(FaultOoc, ParallelLuHardFaultPropagatesWithoutHang) {
  const index_t n = 64, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  PageCache cache(48 * B, B, {}, install_only());
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(lu_init(n, 35));
  FaultInjector* inj = cache.fault_injector(0);
  ASSERT_NE(inj, nullptr);
  // A page in the middle of the matrix becomes unreadable: the failing
  // leaf's IoError must surface from run_task_graph — captured by the
  // pool's task group — with no deadlock and no leaked pins.
  inj->set_hard_fault(7, /*reads=*/true, /*writes=*/true);
  {
    WorkStealingPool pool(8);
    EXPECT_THROW(ooc_igep_lu_dag(m, &pool, {.prefetch = false}), IoError);
  }
  // All pins were released and no frame leaked io_busy: the cache is
  // fully usable afterwards.
  inj->clear_hard_faults();
  EXPECT_NO_THROW(cache.pin(0, 7, false));
  EXPECT_NO_THROW(cache.flush());
}

// ---- Numeric breakdown guards ----

TEST(FaultNumeric, GuardedLuThrowsOnSingularLeadingMinor) {
  Matrix<double> a = lu_init(16, 40);
  a(0, 0) = 0.0;  // singular leading 1x1 minor: pivot 0 breaks down
  for (index_t j = 1; j < 16; ++j) a(0, j) = 1.0;  // keep the row nonzero
  BreakdownGuard guard;
  guard.policy = BreakdownPolicy::Throw;
  EXPECT_THROW(
      { apps::lu_decompose_guarded(a, guard); }, NumericBreakdownError);
}

TEST(FaultNumeric, BoostFactorsShiftedSystem) {
  Matrix<double> a = lu_init(16, 41);
  a(0, 0) = 0.0;
  BreakdownGuard guard;
  guard.policy = BreakdownPolicy::Boost;
  guard.residual_samples = 4;
  Matrix<double> lu = a;
  const NumericReport rep = apps::lu_decompose_guarded(lu, guard);
  EXPECT_GE(rep.breakdowns, 1u);
  EXPECT_GE(rep.boosts, 1u);
  EXPECT_GT(rep.diagonal_shift, 0.0);
  EXPECT_TRUE(lu_factors_finite(lu));
  EXPECT_EQ(rep.residual_failures, 0u)
      << "factors must reproduce the shifted matrix, residual="
      << rep.residual_max;
  EXPECT_TRUE(rep.ok());
}

TEST(FaultNumeric, ReportCountsAndReturnsBrokenFactors) {
  Matrix<double> a = lu_init(16, 42);
  a(0, 0) = 0.0;
  BreakdownGuard guard;
  guard.policy = BreakdownPolicy::Report;
  NumericReport rep;
  EXPECT_NO_THROW({ rep = apps::lu_decompose_guarded(a, guard); });
  EXPECT_GE(rep.breakdowns, 1u);
  EXPECT_EQ(rep.boosts, 0u);
  EXPECT_FALSE(rep.ok());
}

TEST(FaultNumeric, GuardedSolveMatchesPlainOnHealthySystems) {
  const index_t n = 24;
  Matrix<double> a = lu_init(n, 43);
  std::vector<double> b(static_cast<std::size_t>(n));
  SplitMix64 g(44);
  for (double& v : b) v = g.uniform(-1, 1);
  const std::vector<double> plain = apps::solve(a, b);
  BreakdownGuard guard;
  guard.residual_samples = 4;
  NumericReport rep;
  const std::vector<double> guarded =
      apps::solve_guarded(a, b, guard, &rep);
  ASSERT_EQ(plain.size(), guarded.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], guarded[i]) << "guarding must not change the math";
  }
  EXPECT_EQ(rep.breakdowns, 0u);
  EXPECT_GT(rep.growth_factor, 0.0);
  EXPECT_EQ(rep.residual_failures, 0u);
  EXPECT_LE(rep.residual_max, guard.residual_limit);
  EXPECT_TRUE(rep.ok());
}

TEST(FaultNumeric, OocGuardedLuThrowsAtTheOffendingPivot) {
  const index_t n = 32, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  Matrix<double> init = lu_init(n, 45);
  init(0, 0) = 0.0;
  PageCache cache(8 * B, B);
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(init);
  const double amax = guard_max_abs(init);
  const PivotGuard guard(BreakdownPolicy::Throw, default_tiny_pivot(n, amax),
                         amax);
  try {
    ooc_igep_lu_dag(m, nullptr, {.prefetch = false, .lu_guard = &guard});
    FAIL() << "expected NumericBreakdownError";
  } catch (const NumericBreakdownError& e) {
    EXPECT_EQ(e.pivot_index(), 0);
    EXPECT_EQ(e.pivot_value(), 0.0);
  }
  EXPECT_EQ(guard.breakdowns(), 1u);
}

TEST(FaultNumeric, OocGuardedLuBoostsPivotInPlace) {
  const index_t n = 32, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  Matrix<double> init = lu_init(n, 46);
  init(0, 0) = 0.0;
  PageCache cache(8 * B, B);
  OocTiledMatrix<double> m(cache, n, n, bs);
  m.load(init);
  const double amax = guard_max_abs(init);
  const double boost = 0.5 * amax;
  const PivotGuard guard(BreakdownPolicy::Boost, default_tiny_pivot(n, amax),
                         boost);
  EXPECT_NO_THROW(
      ooc_igep_lu_dag(m, nullptr, {.prefetch = false, .lu_guard = &guard}));
  EXPECT_EQ(guard.breakdowns(), 1u);
  EXPECT_EQ(guard.boosts(), 1u);
  const Matrix<double> lu = m.to_matrix();
  // The boosted pivot persisted through the write-pinned diagonal tile.
  EXPECT_EQ(lu(0, 0), boost);
  EXPECT_TRUE(lu_factors_finite(lu));
}

TEST(FaultNumeric, FreivaldsAcceptsCorrectAndRejectsWrongProducts) {
  const index_t n = 48;
  const Matrix<double> a = lu_init(n, 47), b = lu_init(n, 48);
  Matrix<double> c(n, n, 0.0);
  apps::multiply_add(c, a, b, apps::Engine::IGep);
  EXPECT_TRUE(apps::freivalds_check(c, a, b));
  const Matrix<double> before(n, n, 0.0);
  EXPECT_TRUE(apps::freivalds_check(c, before, a, b));
  // A single wrong entry must be caught (each probe misses it with
  // probability 1/2; 8 probes leave 2^-8).
  Matrix<double> wrong = c;
  wrong(n / 2, n / 3) += 1.0;
  EXPECT_FALSE(apps::freivalds_check(wrong, a, b));
  EXPECT_FALSE(apps::freivalds_check(wrong, before, a, b));
}

TEST(FaultNumeric, LuResidualSampleSeparatesGoodFromCorrupt) {
  const index_t n = 32;
  const Matrix<double> a = lu_init(n, 49);
  Matrix<double> lu = a;
  apps::lu_decompose(lu, apps::Engine::IGep);
  EXPECT_LT(lu_residual_sample(a, lu, 8), 1e-10);
  Matrix<double> broken = lu;
  broken(3, 4) += 1.0;
  EXPECT_GT(lu_residual_sample(a, broken, 32), 1e-4);
}

}  // namespace
}  // namespace gep
