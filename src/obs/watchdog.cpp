#include "obs/watchdog.hpp"

#if GEP_OBS

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/registry.hpp"

namespace gep::obs {
inline namespace on {
namespace {

// Incident state per watched ring (flight::WatchedRing::incident): a
// fresh event closes the incident.
enum : std::uint8_t { kIncidentNone = 0, kIncidentWarned = 1, kIncidentDumped = 2 };

struct State {
  std::mutex run_mu;
  std::condition_variable run_cv;
  std::thread monitor;
  bool running = false;
  bool stop = false;
  Watchdog::Options opts;
  // The last start(): no heartbeat counts as older, so a ring that last
  // recorded before the watchdog started is not retroactively stalled.
  std::atomic<std::uint64_t> start_ns{0};
};

State& state() {
  static State* s = new State();  // leaked: outlives late-exiting threads
  return *s;
}

obs::Counter& obs_stalls() {
  static obs::Counter c = obs::counter("obs.watchdog.stalls");
  return c;
}
obs::Counter& obs_dumps() {
  static obs::Counter c = obs::counter("obs.watchdog.dumps");
  return c;
}

// Age of a watched ring's heartbeat at `now`; false while the thread is
// parked (or has recorded nothing), which exempts it from checks.
bool heartbeat_age(const flight::WatchedRing& r, std::uint64_t now,
                   std::uint64_t* age) {
  if (r.last_ns == 0 || r.last_ev == flightfmt::kTaskPark) return false;
  const std::uint64_t beat =
      std::max(r.last_ns, state().start_ns.load(std::memory_order_relaxed));
  *age = now > beat ? now - beat : 0;
  return true;
}

void monitor_loop() {
  State& s = state();
  const double threshold_ms = s.opts.threshold_ms;
  const std::uint64_t threshold_ns =
      static_cast<std::uint64_t>(threshold_ms * 1e6);
  double poll_ms = s.opts.poll_ms > 0 ? s.opts.poll_ms : threshold_ms / 4.0;
  if (poll_ms < 5.0) poll_ms = 5.0;
  std::unique_lock<std::mutex> lock(s.run_mu);
  while (!s.stop) {
    s.run_cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                                poll_ms));
    if (s.stop) break;
    const std::uint64_t now = flight::now_ns();
    flight::for_each_watched([&](const flight::WatchedRing& r) {
      std::uint64_t age = 0;
      if (!heartbeat_age(r, now, &age)) return;
      const int inc = r.incident->load(std::memory_order_relaxed);
      if (age <= threshold_ns) {
        if (inc != kIncidentNone) {
          r.incident->store(kIncidentNone, std::memory_order_relaxed);
          std::fprintf(stderr,
                       "[gep-watchdog] source '%s' recovered after %.0f ms\n",
                       r.name, static_cast<double>(age) / 1e6);
        }
        return;
      }
      if (inc == kIncidentNone) {
        r.incident->store(kIncidentWarned, std::memory_order_relaxed);
        obs_stalls().inc();
        flight::record(flightfmt::kStallDetect, r.tid);
        std::fprintf(stderr,
                     "[gep-watchdog] source '%s' has made no progress for "
                     "%.0f ms (threshold %.0f ms)\n",
                     r.name, static_cast<double>(age) / 1e6, threshold_ms);
      } else if (inc == kIncidentWarned && s.opts.dump_on_stall) {
        r.incident->store(kIncidentDumped, std::memory_order_relaxed);
        obs_dumps().inc();
        const char* path = flight::dump_path();
        const bool ok = flight::dump(path, flightfmt::kReasonWatchdog);
        std::fprintf(stderr,
                     "[gep-watchdog] source '%s' still stalled; flight "
                     "dump %s -> %s\n",
                     r.name, ok ? "written" : "FAILED", path);
      }
    });
  }
}

}  // namespace

WatchdogThreadSource::WatchdogThreadSource(const char* name)
    : prev_(flight::watch_state()) {
  // The wake first: a ring marked watched before it is recorded could
  // show the monitor the thread's last event, however old.
  flight::record(flightfmt::kTaskWake);
  flight::Watch w;
  w.watched = true;
  std::strncpy(w.name, name, sizeof w.name - 1);
  flight::set_watch(w);
}

bool Watchdog::start(const Options& opts) {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.run_mu);
  if (s.running) return false;
  s.opts = opts;
  s.stop = false;
  s.running = true;
  // Registered here, so an armed run reports 0 rather than no counter.
  obs_stalls();
  obs_dumps();
  // Fresh run: a new incident history and a fresh heartbeat baseline.
  s.start_ns.store(flight::now_ns(), std::memory_order_relaxed);
  flight::for_each_watched([](const flight::WatchedRing& r) {
    r.incident->store(kIncidentNone, std::memory_order_relaxed);
  });
  s.monitor = std::thread(monitor_loop);
  return true;
}

bool Watchdog::start_from_env() {
  const char* v = std::getenv("GEP_WATCHDOG_MS");
  if (v == nullptr) return false;
  const double ms = std::atof(v);
  if (ms <= 0) return false;
  Options o;
  o.threshold_ms = ms;
  return start(o);
}

void Watchdog::stop() {
  State& s = state();
  std::thread joinme;
  {
    std::unique_lock<std::mutex> lock(s.run_mu);
    if (!s.running) return;
    s.stop = true;
    s.run_cv.notify_all();
    joinme = std::move(s.monitor);
    s.running = false;
  }
  joinme.join();
}

bool Watchdog::running() {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.run_mu);
  return s.running;
}

std::uint64_t Watchdog::stalls_detected() { return obs_stalls().value(); }
std::uint64_t Watchdog::dumps_written() { return obs_dumps().value(); }

WatchdogStatus Watchdog::status() {
  WatchdogStatus st;
  st.stalls = stalls_detected();
  st.dumps = dumps_written();
  // Report the open incident with the oldest heartbeat. A thread that
  // recorded since (incident closed at the next poll, already below
  // threshold now) is reported stalled only until that poll.
  const std::uint64_t now = flight::now_ns();
  std::uint64_t worst_age = 0;
  flight::for_each_watched([&](const flight::WatchedRing& r) {
    std::uint64_t age = 0;
    if (!heartbeat_age(r, now, &age) ||
        r.incident->load(std::memory_order_relaxed) == kIncidentNone) {
      return;
    }
    if (st.state != WatchdogStatus::State::Stalled || age > worst_age) {
      st.state = WatchdogStatus::State::Stalled;
      st.source = r.name;
      st.age_ms = static_cast<double>(age) / 1e6;
      worst_age = age;
    }
  });
  if (st.state != WatchdogStatus::State::Stalled && st.stalls > 0) {
    st.state = WatchdogStatus::State::Recovered;
  }
  return st;
}

}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS
