// Live-telemetry matrix: flight recorder (ring semantics, dump format,
// signal paths), stall watchdog (detection, escalation, no false
// positives, latency-burst coverage), progress/ETA closed forms, and
// the I/O-bound accountant.
//
// The dump-decoding tests read .gepdump files with the same flightfmt
// structs tools/gep_events uses, so they double as a format regression
// gate: a layout change that breaks the CLI breaks these first.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "extmem/fault_injector.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "parallel/task_graph.hpp"
#include "layout/zblocked.hpp"
#include "obs/obs.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

namespace ff = obs::flightfmt;

// Teardown gate for the idle/exit false-positive fix: after the whole
// suite has run — every WatchdogThreadSource destroyed, every test's
// monitor stopped — re-arm the watchdog over whatever rings the tests
// left behind. A ring left watched with a stale newest event trips this
// within one poll.
class NoLeakedStallSources : public ::testing::Environment {
 public:
  void TearDown() override {
    ASSERT_FALSE(obs::Watchdog::running())
        << "a test forgot to stop the watchdog";
    const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();
    obs::Watchdog::Options o;
    o.threshold_ms = 60.0;
    o.poll_ms = 15.0;
    o.dump_on_stall = false;
    if (!obs::Watchdog::start(o)) return;  // GEP_OBS=0: nothing to check
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    obs::Watchdog::stop();
    EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0)
        << "a leaked or stale watchdog source stalls after teardown";
  }
};

const ::testing::Environment* const kNoLeakedStallSources =
    ::testing::AddGlobalTestEnvironment(new NoLeakedStallSources);

Matrix<double> dd_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

#if GEP_OBS

// ---- .gepdump decoding (mirrors tools/gep_events) ------------------------

struct DecodedThread {
  ff::ThreadHeader th{};
  std::vector<ff::Event> events;
};

struct DecodedDump {
  bool ok = false;
  ff::FileHeader hdr{};
  std::vector<DecodedThread> threads;
  std::uint32_t metrics_len = 0;  // as declared by the dump
  std::string metrics;
};

DecodedDump decode_dump(const std::string& path) {
  DecodedDump d;
  std::ifstream in(path, std::ios::binary);
  if (!in) return d;
  in.read(reinterpret_cast<char*>(&d.hdr), sizeof d.hdr);
  if (!in || std::memcmp(d.hdr.magic, ff::kMagic, sizeof ff::kMagic) != 0 ||
      d.hdr.version != ff::kVersion) {
    return d;
  }
  d.ok = true;  // header valid; the rest is truncation-tolerant
  for (std::uint32_t t = 0; t < d.hdr.thread_count; ++t) {
    DecodedThread dt;
    in.read(reinterpret_cast<char*>(&dt.th), sizeof dt.th);
    if (!in) return d;
    dt.events.resize(dt.th.count);
    in.read(reinterpret_cast<char*>(dt.events.data()),
            static_cast<std::streamsize>(dt.th.count * sizeof(ff::Event)));
    if (!in) {
      dt.events.resize(static_cast<std::size_t>(in.gcount()) /
                       sizeof(ff::Event));
      d.threads.push_back(std::move(dt));
      return d;
    }
    d.threads.push_back(std::move(dt));
  }
  std::uint32_t mlen = 0;
  in.read(reinterpret_cast<char*>(&mlen), sizeof mlen);
  if (in) d.metrics_len = mlen;
  if (in && mlen > 0) {
    d.metrics.resize(mlen);
    in.read(d.metrics.data(), mlen);
    d.metrics.resize(static_cast<std::size_t>(in.gcount()));
  }
  return d;
}

const DecodedThread* find_thread(const DecodedDump& d, const char* name) {
  for (const DecodedThread& t : d.threads) {
    if (std::strncmp(t.th.name, name, sizeof t.th.name) == 0) return &t;
  }
  return nullptr;
}

bool any_event(const DecodedDump& d, unsigned type) {
  for (const DecodedThread& t : d.threads) {
    for (const ff::Event& e : t.events) {
      if (ff::ev_of(e.w) == type) return true;
    }
  }
  return false;
}

#endif  // GEP_OBS

// ---- event word packing --------------------------------------------------

TEST(TelemetryFormat, PackUnpackRoundTrips) {
  const std::uint64_t w = ff::pack(ff::kPageIn, 0x123456789ABCull);
  EXPECT_EQ(ff::ev_of(w), static_cast<unsigned>(ff::kPageIn));
  EXPECT_EQ(ff::payload_of(w), 0x123456789ABCull);

  // Page payloads: full-width file id and 40-bit page number survive.
  const std::uint64_t pmax = (std::uint64_t{1} << 40) - 1;
  const std::uint64_t pp = ff::pack_page(0xFFFF, pmax);
  EXPECT_EQ(ff::page_file(pp), 0xFFFF);
  EXPECT_EQ(ff::page_page(pp), pmax);
  EXPECT_EQ(ff::page_file(ff::pack_page(3, 17)), 3);
  EXPECT_EQ(ff::page_page(ff::pack_page(3, 17)), 17u);

  // Recursion payloads.
  const std::uint64_t rp = ff::pack_rec('C', 11, 2048);
  EXPECT_EQ(ff::rec_kind(rp), 'C');
  EXPECT_EQ(ff::rec_depth(rp), 11);
  EXPECT_EQ(ff::rec_m(rp), 2048u);

  // Steal payloads.
  const std::uint64_t sp = ff::pack_steal(7, 12);
  EXPECT_EQ(ff::steal_thief(sp), 7);
  EXPECT_EQ(ff::steal_victim(sp), 12);

  // Payload stays inside its 56 bits even for hostile values.
  const std::uint64_t hostile = ff::pack(ff::kMark, ~std::uint64_t{0});
  EXPECT_EQ(ff::ev_of(hostile), static_cast<unsigned>(ff::kMark));

  EXPECT_STREQ(ff::ev_name(ff::kPageIn), "page_in");
  EXPECT_STREQ(ff::ev_name(ff::kMark), "mark");
  EXPECT_STREQ(ff::ev_name(ff::kEvCount + 5), "?");
}

// Everything from here to the closed-form sanity tests exercises live
// recording/dumping/watchdog/progress behavior that only exists in
// instrumented builds; GEP_OBS=0 inertness is pinned by
// tests/test_obs_off.cpp instead.
#if GEP_OBS

// ---- ring + programmatic dump --------------------------------------------

TEST(TelemetryFlight, RingKeepsLastNAndDumpDecodes) {
  obs::flight::clear();
  obs::flight::set_thread_name("telemetry-main");
  const std::uint32_t n = obs::flight::kRingEvents + 905;
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::flight::record(ff::kMark, i);
  }
  const char* path = "telemetry_ring.gepdump";
  ASSERT_TRUE(obs::flight::dump(path));

  const DecodedDump d = decode_dump(path);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.hdr.reason, ff::kReasonManual);
  EXPECT_GT(d.hdr.dump_ns, 0u);
  ASSERT_GE(d.hdr.thread_count, 1u);

  const DecodedThread* t = find_thread(d, "telemetry-main");
  ASSERT_NE(t, nullptr);
  // The ring holds exactly the last kRingEvents marks, oldest first.
  ASSERT_EQ(t->th.count, obs::flight::kRingEvents);
  EXPECT_GE(t->th.seq, static_cast<std::uint64_t>(n));
  std::uint64_t prev_ns = 0;
  for (std::uint32_t i = 0; i < t->th.count; ++i) {
    const ff::Event& e = t->events[i];
    EXPECT_EQ(ff::ev_of(e.w), static_cast<unsigned>(ff::kMark));
    EXPECT_EQ(ff::payload_of(e.w), n - obs::flight::kRingEvents + i);
    EXPECT_GE(e.t_ns, prev_ns) << "timestamps must be monotone";
    prev_ns = e.t_ns;
  }

  // Manual dumps carry the metrics snapshot, and it is valid JSON.
  ASSERT_FALSE(d.metrics.empty());
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(d.metrics, &v, &err)) << err;
  EXPECT_TRUE(v.is_object());
  std::remove(path);
}

TEST(TelemetryFlight, DumpPathDefaultsAndOverrides) {
  obs::flight::set_dump_path("telemetry_alt.gepdump");
  EXPECT_STREQ(obs::flight::dump_path(), "telemetry_alt.gepdump");
  obs::flight::record(ff::kMark, 1);
  ASSERT_TRUE(obs::flight::dump_default());
  EXPECT_TRUE(decode_dump("telemetry_alt.gepdump").ok);
  std::remove("telemetry_alt.gepdump");

  // Over-long paths are rejected (the buffer is static for handlers).
  const std::string huge(4096, 'x');
  obs::flight::set_dump_path(huge.c_str());
  EXPECT_STRNE(obs::flight::dump_path(), huge.c_str());
  obs::flight::set_dump_path("flight.gepdump");
}

#if defined(__SANITIZE_ADDRESS__)
// libasan's allocator statistics (sanitizer/allocator_interface.h, which
// not every toolchain ships).
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

// The memory a thread churn may grow: the resident set, or under ASan the
// live heap bytes, since ASan's quarantine keeps freed blocks resident.
std::int64_t memory_in_use() {
#if defined(__SANITIZE_ADDRESS__)
  return static_cast<std::int64_t>(__sanitizer_get_current_allocated_bytes());
#else
  long size = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
#endif
}

// Every DAG solve starts a fresh pool, so a ring per thread ever started
// grew a 4-worker solve loop by 192 KiB a solve. An exiting thread's ring
// goes back to the table instead: 1000 pool create/run/destroy cycles
// must leave the ring count and the memory in use flat, and a dump taken
// after the churn must still name the workers of the pool that is live
// then.
TEST(TelemetryFlight, RingsOfExitedThreadsAreReused) {
  constexpr int kChurnThreads = 4;  // three workers plus this thread
  constexpr int kLiveThreads = 6;   // names ws-worker-4/5 are new
  const int rings_at_start = obs::flight::ring_count();
  obs::flight::record(ff::kMark, 0);
  auto churn = [](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      WorkStealingPool pool(kChurnThreads);
      WsTaskGroup g(&pool);
      for (int t = 0; t < 8; ++t) {
        g.run([] { obs::flight::record(ff::kMark, 1); });
      }
      g.wait();
    }
  };
  churn(10);  // settle the allocator's per-thread arenas
  const std::int64_t mem0 = memory_in_use();
  churn(1000);
  // At most kChurnThreads threads record at once (this one included).
  EXPECT_LE(obs::flight::ring_count(), rings_at_start + kChurnThreads + 1);
  EXPECT_LT(memory_in_use() - mem0, std::int64_t{4} << 20);

  WorkStealingPool live(kLiveThreads);
  const char* path = "telemetry_churn.gepdump";
  bool all_named = false;
  for (int attempt = 0; attempt < 200 && !all_named; ++attempt) {
    ASSERT_TRUE(obs::flight::dump(path));
    const DecodedDump d = decode_dump(path);
    ASSERT_TRUE(d.ok);
    all_named = true;
    for (int w = 1; w < kLiveThreads; ++w) {
      const std::string name = "ws-worker-" + std::to_string(w);
      all_named = all_named && find_thread(d, name.c_str()) != nullptr;
    }
    if (!all_named) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(all_named) << "a live worker is missing from the dump";
  std::remove(path);
}

TEST(TelemetryFlight, DumpToUnwritablePathReturnsFalse) {
  EXPECT_FALSE(obs::flight::dump("/nonexistent-dir/x/y.gepdump"));
}

// ---- signal paths --------------------------------------------------------

TEST(TelemetryFlight, Sigusr1DumpsWithMetricsAndContinues) {
  obs::flight::install_crash_handlers();
  const char* path = "telemetry_usr1.gepdump";
  std::remove(path);
  obs::flight::set_dump_path(path);
  obs::flight::record(ff::kMark, 77);
  ASSERT_EQ(std::raise(SIGUSR1), 0);
  // The process is still alive here. The handler only recorded the
  // signal; the dump thread writes the file: wait (bounded) for all of
  // it to land.
  DecodedDump d;
  for (int i = 0; i < 1000; ++i) {
    d = decode_dump(path);
    if (d.ok && d.metrics_len > 0 && d.metrics.size() == d.metrics_len) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.hdr.reason, SIGUSR1);
  EXPECT_TRUE(any_event(d, ff::kSignal));
  EXPECT_FALSE(d.metrics.empty()) << "healthy-process dump keeps metrics";
  std::remove(path);
  obs::flight::set_dump_path("flight.gepdump");
}

TEST(TelemetryFlightDeathTest, FatalSignalWritesEventsOnlyDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* path = "telemetry_crash.gepdump";
  std::remove(path);
  EXPECT_EXIT(
      {
        obs::flight::install_crash_handlers();
        obs::flight::set_dump_path(path);
        obs::flight::set_thread_name("crasher");
        obs::flight::record(ff::kMark, 42);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  const DecodedDump d = decode_dump(path);
  ASSERT_TRUE(d.ok) << "crash handler must leave a decodable dump";
  EXPECT_EQ(d.hdr.reason, SIGABRT);
  const DecodedThread* t = find_thread(d, "crasher");
  ASSERT_NE(t, nullptr);
  bool saw_mark = false;
  for (const ff::Event& e : t->events) {
    if (ff::ev_of(e.w) == ff::kMark && ff::payload_of(e.w) == 42) {
      saw_mark = true;
    }
  }
  EXPECT_TRUE(saw_mark);
  EXPECT_TRUE(d.metrics.empty()) << "fatal dumps are events-only";
  std::remove(path);
}

// ---- cooperative cancellation --------------------------------------------

TEST(TelemetryCancel, StopFlagThrowsAndResets) {
  obs::flight::reset_stop();
  EXPECT_FALSE(obs::flight::stop_requested());
  EXPECT_NO_THROW(obs::throw_if_stop_requested());
  obs::flight::request_stop();
  EXPECT_TRUE(obs::flight::stop_requested());
  EXPECT_THROW(obs::throw_if_stop_requested(), obs::JobCancelled);
  obs::flight::reset_stop();
  EXPECT_FALSE(obs::flight::stop_requested());
}

TEST(TelemetryCancel, OocLeavesPollTheStopFlag) {
  const index_t n = 16, bs = 8;
  const std::uint64_t B = bs * bs * sizeof(double);
  PageCache cache(8 * B, B);
  OocTiledMatrix<double> m(cache, n, n, bs);
  Matrix<double> init(n, n, 1.0);
  m.load(init);
  obs::flight::request_stop();
  EXPECT_THROW(ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = false}),
               obs::JobCancelled);
  obs::flight::reset_stop();
  // With the flag cleared the same job completes.
  EXPECT_NO_THROW(
      ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = false}));
}

// ---- watchdog ------------------------------------------------------------

TEST(TelemetryWatchdog, AttachNestingRestoresPreviousSource) {
  const obs::flight::Watch before = obs::flight::watch_state();
  EXPECT_FALSE(before.watched);
  {
    obs::WatchdogThreadSource outer("wd-outer");
    EXPECT_TRUE(obs::flight::watch_state().watched);
    EXPECT_STREQ(obs::flight::watch_state().name, "wd-outer");
    {
      obs::WatchdogThreadSource inner("wd-inner");
      EXPECT_TRUE(obs::flight::watch_state().watched);
      EXPECT_STREQ(obs::flight::watch_state().name, "wd-inner");
    }
    EXPECT_TRUE(obs::flight::watch_state().watched);
    EXPECT_STREQ(obs::flight::watch_state().name, "wd-outer");
  }
  EXPECT_FALSE(obs::flight::watch_state().watched);
  EXPECT_STREQ(obs::flight::watch_state().name, before.name);
}

// A thread that exits while watched (no scope restored its ring) must
// not hand a watched ring to the next thread that takes it over. Enough
// threads run at once to take over every free ring, that one included.
TEST(TelemetryWatchdog, TakenOverRingStartsUnwatched) {
  std::thread([] {
    obs::flight::Watch w;
    w.watched = true;
    std::strcpy(w.name, "wd-exited");
    obs::flight::set_watch(w);
  }).join();
  const int rings = obs::flight::ring_count();
  std::atomic<int> arrived{0};
  std::atomic<int> watched{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < rings; ++i) {
    ts.emplace_back([&] {
      obs::flight::record(ff::kMark, 0);  // takes over a ring (or makes one)
      if (obs::flight::watch_state().watched) watched.fetch_add(1);
      arrived.fetch_add(1);
      while (arrived.load() < rings) std::this_thread::yield();
    });
  }
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(watched.load(), 0);
}

TEST(TelemetryWatchdog, StalledSourceIsDetectedAndDumped) {
  ASSERT_FALSE(obs::Watchdog::running());
  const char* path = "telemetry_stall.gepdump";
  std::remove(path);
  obs::flight::set_dump_path(path);
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();
  const std::uint64_t dumps0 = obs::Watchdog::dumps_written();

  {
    obs::WatchdogThreadSource src("test-stall");
    obs::Watchdog::Options opts;
    opts.threshold_ms = 100.0;
    opts.poll_ms = 25.0;
    ASSERT_TRUE(obs::Watchdog::start(opts));
    EXPECT_TRUE(obs::Watchdog::running());
    EXPECT_FALSE(obs::Watchdog::start(opts)) << "double start must refuse";

    // One event, then silence: within ~1.5x threshold the monitor must
    // have both counted the stall and escalated to a dump. 500ms is 5x:
    // no flake.
    obs::flight::record(ff::kMark, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_GE(obs::Watchdog::stalls_detected(), stalls0 + 1);
    EXPECT_GE(obs::Watchdog::dumps_written(), dumps0 + 1);

    // An event closes the incident; a NEW stall is a new incident with
    // exactly one more dump.
    obs::flight::record(ff::kMark, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const std::uint64_t dumps_after = obs::Watchdog::dumps_written();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_EQ(obs::Watchdog::dumps_written(), dumps_after + 1);

    obs::Watchdog::stop();
  }
  EXPECT_FALSE(obs::Watchdog::running());

  // The stall event names the stalled thread by tid; the dump's thread
  // headers resolve it (as gep_events does).
  const DecodedDump d = decode_dump(path);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.hdr.reason, ff::kReasonWatchdog);
  const ff::Event* stall = nullptr;
  for (const DecodedThread& t : d.threads) {
    for (const ff::Event& e : t.events) {
      if (ff::ev_of(e.w) == ff::kStallDetect) stall = &e;
    }
  }
  ASSERT_NE(stall, nullptr);
  const DecodedThread* stalled = find_thread(d, "test-stall");
  ASSERT_NE(stalled, nullptr);
  EXPECT_EQ(ff::payload_of(stall->w), stalled->th.tid);
  std::remove(path);
  obs::flight::set_dump_path("flight.gepdump");
}

TEST(TelemetryWatchdog, BeatingAndIdleSourcesNeverFalsePositive) {
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  // One thread records every 20ms; the other parks and stays parked.
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::thread beater([&] {
    obs::WatchdogThreadSource src("test-beating");
    ready.fetch_add(1);
    while (!stop.load()) {
      obs::flight::record(ff::kMark, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  std::thread idle([&] {
    obs::WatchdogThreadSource src("test-idle");
    obs::flight::record(ff::kTaskPark);
    ready.fetch_add(1);
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  while (ready.load() < 2) std::this_thread::yield();

  obs::Watchdog::Options opts;
  opts.threshold_ms = 150.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  beater.join();
  idle.join();
  obs::Watchdog::stop();

  EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0)
      << "neither a recording thread nor a parked one may trip the monitor";
}

// Regression for the idle false-positive: a WatchdogThreadSource whose
// scope ends while the monitor is armed must leave nothing behind that
// can stall — its ring is no longer watched, however old its last
// event grows.
TEST(TelemetryWatchdog, SourceScopeExitLeavesNoStallBehind) {
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  obs::Watchdog::Options opts;
  opts.threshold_ms = 80.0;
  opts.poll_ms = 20.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));
  {
    obs::WatchdogThreadSource src("test-scope-exit");
    obs::flight::record(ff::kMark, 0);
  }  // armed monitor keeps polling; the unwatched ring must stay silent
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Re-watching: a NEW scope on the same ring starts from a fresh
  // heartbeat (its entry's wake), not the ring's event of 300ms ago.
  {
    obs::WatchdogThreadSource next("test-scope-reuse");
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  obs::Watchdog::stop();
  EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0)
      << "an exited source must never trip the monitor";
}

// A pool worker wedged in a task that records nothing is reported under
// its own name, while the pool's other worker, parked, is not: exactly
// one stall.
TEST(TelemetryWatchdog, StalledPoolWorkerIsNamed) {
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  WorkStealingPool pool(3);  // the caller plus ws-worker-1 and ws-worker-2
  obs::Watchdog::Options opts;
  opts.threshold_ms = 100.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  char worker[24] = {};
  {
    WsTaskGroup g(&pool);
    // Queued on the caller's deque; the caller never runs it (it waits
    // below without helping), so a worker steals it.
    g.run([&] {
      std::memcpy(worker, obs::flight::watch_state().name, sizeof worker);
      started.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const obs::WatchdogStatus st = obs::Watchdog::status();
    EXPECT_EQ(st.state, obs::WatchdogStatus::State::Stalled);
    EXPECT_EQ(std::string(worker).rfind("ws-worker-", 0), 0u) << worker;
    EXPECT_EQ(st.source, worker);
    EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0 + 1)
        << "only the wedged worker stalls; the parked one is idle";
    release.store(true);
    g.wait();
  }
  obs::Watchdog::stop();
}

TEST(TelemetryWatchdog, ParkedPoolIsQuiet) {
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  WorkStealingPool pool(3);
  obs::Watchdog::Options opts;
  opts.threshold_ms = 100.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  ASSERT_TRUE(obs::Watchdog::start(opts));
  {
    // A burst of work, then the workers park for 4x the threshold.
    std::atomic<int> ran{0};
    WsTaskGroup g(&pool);
    for (int i = 0; i < 32; ++i) g.run([&ran] { ran.fetch_add(1); });
    g.wait();
    EXPECT_EQ(ran.load(), 32);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  obs::Watchdog::stop();
  EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0)
      << "parked pool workers are waiting for work, not stalled";
}

TEST(TelemetryWatchdog, LatencyBurstInPageCacheIsDetected) {
  // A FaultInjector latency spike (300ms) far beyond the threshold
  // (100ms) stalls the pinning thread mid-read; the attached source must
  // trip. Detection deadline: threshold + poll = 125ms < 2x threshold,
  // well inside the 300ms the pin is actually stuck.
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  constexpr std::uint64_t kPage = 256;
  RobustOptions r;
  r.faults.p_latency = 1.0;
  r.faults.latency_spike_ms = 300.0;
  r.retry.backoff_us = 0;
  PageCache cache(4 * kPage, kPage, {}, r);
  const int f = cache.register_file(8);
  ASSERT_NE(cache.fault_injector(f), nullptr);

  obs::Watchdog::Options opts;
  opts.threshold_ms = 100.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  {
    obs::WatchdogThreadSource src("test-latency");
    ASSERT_TRUE(obs::Watchdog::start(opts));
    obs::flight::record(ff::kMark, 0);
    cache.pin(f, 0, false);  // blocks ~300ms inside the injector
  }
  obs::Watchdog::stop();
  EXPECT_GE(obs::Watchdog::stalls_detected(), stalls0 + 1)
      << "the 300ms latency burst must be reported as a stall";
  EXPECT_GE(cache.fault_injector(f)->stats().latency_spikes, 1u);
}

TEST(TelemetryWatchdog, DefaultFaultLatencyBelowThresholdIsQuiet) {
  // The test_faults seed matrix uses latency_spike_ms defaults (2ms);
  // with a realistic threshold those spikes must never false-positive.
  ASSERT_FALSE(obs::Watchdog::running());
  const std::uint64_t stalls0 = obs::Watchdog::stalls_detected();

  constexpr std::uint64_t kPage = 256;
  RobustOptions r;
  r.faults.p_latency = 0.5;  // frequent, but each spike is only 2ms
  r.retry.backoff_us = 0;
  PageCache cache(4 * kPage, kPage, {}, r);
  const int f = cache.register_file(16);

  obs::Watchdog::Options opts;
  opts.threshold_ms = 200.0;
  opts.poll_ms = 25.0;
  opts.dump_on_stall = false;
  {
    obs::WatchdogThreadSource src("test-quiet");
    ASSERT_TRUE(obs::Watchdog::start(opts));
    for (std::uint64_t p = 0; p < 16; ++p) {
      obs::flight::record(ff::kMark, p);
      char* b = static_cast<char*>(cache.pin(f, p, true));
      b[0] = static_cast<char>(p);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    obs::flight::record(ff::kMark, 16);
  }
  obs::Watchdog::stop();
  EXPECT_EQ(obs::Watchdog::stalls_detected(), stalls0)
      << "2ms spikes under a 200ms threshold are not stalls";
}

// ---- progress / ETA ------------------------------------------------------

TEST(TelemetryProgress, CubeClosedFormIsExactForFloydWarshall) {
  const index_t n = 64, bs = 16;
  Matrix<double> a = dd_matrix(n, 51);
  obs::ProgressMeter meter;
  meter.begin(obs::typed_cube_updates(static_cast<double>(n)));
  const obs::ProgressSample before = meter.sample();
  EXPECT_EQ(before.fraction, 0.0);
  EXPECT_EQ(before.eta_s, -1.0) << "no progress yet: ETA unknown";
  RowMajorStore<double> st{a.data(), n, bs};
  igep_floyd_warshall(nullptr, st, n, {bs, Runtime::ForkJoin});

  const obs::ProgressSample s = meter.sample();
  // The counters count exactly one update per (i,j,k): n^3 total, so
  // the closed form lands on fraction == 1.0 with no tolerance.
  EXPECT_EQ(s.updates_done, static_cast<double>(n) * n * n);
  EXPECT_EQ(s.fraction, 1.0);
  EXPECT_EQ(s.eta_s, 0.0);
}

// Exact at any (n, base): bs divides n, bs does not (clipped last slab),
// and a base above n (one clipped leaf).
TEST(TelemetryProgress, LuClosedFormMatchesThePrunedRecursion) {
  const std::pair<index_t, index_t> cases[] = {{64, 16}, {1000, 64}, {10, 64}};
  for (const auto& [n, base] : cases) {
    Matrix<double> a = dd_matrix(n, 52);
    obs::ProgressMeter meter;
    meter.begin(obs::typed_lu_updates(static_cast<double>(n),
                                      static_cast<double>(base)));
    RowMajorStore<double> st{a.data(), n, leaf_side(base, n)};
    igep_lu(nullptr, st, n, {base, Runtime::ForkJoin});
    const obs::ProgressSample s = meter.sample();
    EXPECT_EQ(s.fraction, 1.0) << "n=" << n << " base=" << base
                               << " done=" << s.updates_done
                               << " total=" << s.updates_total;
  }
}

#endif  // GEP_OBS

TEST(TelemetryProgress, ClosedFormsAgreeOnShapes) {
  EXPECT_EQ(obs::typed_cube_updates(64.0), 64.0 * 64.0 * 64.0);
  // t=1 (one slab): the LU form degenerates to the full cube.
  EXPECT_EQ(obs::typed_lu_updates(64.0, 64.0), 64.0 * 64.0 * 64.0);
  // LU does strictly less work than the cube once it can prune.
  EXPECT_LT(obs::typed_lu_updates(64.0, 16.0), obs::typed_cube_updates(64.0));
  // Doubling n multiplies the t(t+1)(2t+1)/6 sum by a bit under 8.
  const double r =
      obs::typed_lu_updates(128.0, 16.0) / obs::typed_lu_updates(64.0, 16.0);
  EXPECT_GT(r, 6.0);
  EXPECT_LT(r, 8.0);
}

TEST(TelemetryProgress, ReporterStartsAndStopsCleanly) {
  obs::ProgressMeter meter;
  meter.begin(1000.0, 1e9);
  {
    obs::ProgressReporter quiet(&meter, 0.0, "quiet");  // no thread
    obs::ProgressReporter live(&meter, 0.005, "live");
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }  // joins without hanging
  SUCCEED();
}

// ---- I/O-bound accountant ------------------------------------------------

TEST(TelemetryIoModel, PredictionFollowsTheTheorem) {
  const double n = 4096, M = 1 << 24, B = 1 << 16;
  const obs::IoBoundPrediction p = obs::igep_io_prediction(n, M, B);
  EXPECT_GT(p.cube_transfers, 0.0);
  EXPECT_GT(p.scan_transfers, 0.0);
  EXPECT_EQ(p.total(), p.cube_transfers + p.scan_transfers);

  // n^3/(B sqrt(M)): 8x the problem -> 8x the cube term at fixed M, B.
  const obs::IoBoundPrediction p2 = obs::igep_io_prediction(2 * n, M, B);
  EXPECT_NEAR(p2.cube_transfers / p.cube_transfers, 8.0, 1e-9);
  // 4x the memory -> half the cube term (sqrt scaling).
  const obs::IoBoundPrediction pm = obs::igep_io_prediction(n, 4 * M, B);
  EXPECT_NEAR(pm.cube_transfers / p.cube_transfers, 0.5, 1e-9);
  // Scan traffic is memory-independent.
  EXPECT_EQ(pm.scan_transfers, p.scan_transfers);

  // Degenerate inputs predict zero rather than NaN.
  EXPECT_EQ(obs::igep_io_prediction(0, M, B).total(), 0.0);
  EXPECT_EQ(obs::igep_io_prediction(n, 0, B).total(), 0.0);
}

TEST(TelemetryIoModel, RatioCalibration) {
  const obs::IoBoundPrediction p = obs::igep_io_prediction(1024, 1 << 20,
                                                           1 << 12);
  const std::uint64_t exact = static_cast<std::uint64_t>(p.total());
  EXPECT_NEAR(obs::io_bound_ratio(exact, p), 1.0, 1e-3);
  EXPECT_NEAR(obs::io_bound_ratio(2 * exact, p), 2.0, 2e-3);
  EXPECT_EQ(obs::io_bound_ratio(100, obs::IoBoundPrediction{}), 0.0);
}

TEST(TelemetryIoModel, MeasuredOocTrafficIsWithinModelRange) {
  // End-to-end: run the OOC FW at two sizes with M scaled as n^2/2 and a
  // fixed tile size; the measured/predicted ratio must be positive and
  // stable across sizes (the CI bench-smoke checks +-25%; the unit test
  // allows 2x to stay timing- and layout-independent).
  auto ratio_at = [](index_t n) {
    const index_t bs = 8;
    const std::uint64_t B = bs * bs * sizeof(double);
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * n * 8;
    PageCache cache(bytes / 2, B);
    OocTiledMatrix<double> m(cache, n, n, bs);
    m.load(dd_matrix(n, 53));
    cache.reset_stats();
    ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = false});
    const std::uint64_t io = cache.stats().page_ins + cache.stats().page_outs;
    return obs::io_bound_ratio(
        io, obs::igep_io_prediction(static_cast<double>(n),
                                    static_cast<double>(bytes) / 2,
                                    static_cast<double>(B)));
  };
  const double r64 = ratio_at(64);
  const double r128 = ratio_at(128);
  EXPECT_GT(r64, 0.0);
  EXPECT_GT(r128, 0.0);
  EXPECT_LT(std::max(r64, r128) / std::min(r64, r128), 2.0)
      << "r64=" << r64 << " r128=" << r128;
}

}  // namespace
}  // namespace gep
