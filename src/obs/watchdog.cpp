#include "obs/watchdog.hpp"

#if GEP_OBS

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"

namespace gep::obs {
inline namespace on {
namespace {

constexpr int kMaxSources = 64;

// Incident state machine per source: fresh beats close the incident.
enum : int { kIncidentNone = 0, kIncidentWarned = 1, kIncidentDumped = 2 };

struct Source {
  std::atomic<bool> used{false};
  std::atomic<bool> idle{true};
  std::atomic<std::uint64_t> last_beat_ns{0};
  std::atomic<int> incident{kIncidentNone};
  char name[24] = {};
};

struct State {
  Source sources[kMaxSources];
  std::mutex reg_mu;  // registration / unregistration only

  std::mutex run_mu;
  std::condition_variable run_cv;
  std::thread monitor;
  bool running = false;
  bool stop = false;
  Watchdog::Options opts;

  std::atomic<std::uint64_t> stalls{0};
  std::atomic<std::uint64_t> dumps{0};
  // One relaxed load on every beat path while stopped.
  std::atomic<bool> enabled{false};
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

thread_local int t_source = -1;

void beat_at(int id, std::uint64_t now_ns) {
  Source& src = state().sources[id];
  src.last_beat_ns.store(now_ns, std::memory_order_relaxed);
  src.idle.store(false, std::memory_order_relaxed);
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
    for (int i = 0; i < kMaxSources; ++i) {
      Source& src = s.sources[i];
      if (!src.used.load(std::memory_order_acquire)) continue;
      if (src.idle.load(std::memory_order_relaxed)) continue;
      const std::uint64_t beat =
          src.last_beat_ns.load(std::memory_order_relaxed);
      if (beat == 0) continue;
      const std::uint64_t age = now > beat ? now - beat : 0;
      const int inc = src.incident.load(std::memory_order_relaxed);
      if (age <= threshold_ns) {
        if (inc != kIncidentNone) {
          src.incident.store(kIncidentNone, std::memory_order_relaxed);
          std::fprintf(stderr,
                       "[gep-watchdog] source '%s' recovered after %.0f ms\n",
                       src.name, static_cast<double>(age) / 1e6);
        }
        continue;
      }
      if (inc == kIncidentNone) {
        src.incident.store(kIncidentWarned, std::memory_order_relaxed);
        s.stalls.fetch_add(1, std::memory_order_relaxed);
        obs_stalls().inc();
        flight::record(flightfmt::kStallDetect,
                       static_cast<std::uint64_t>(i));
        std::fprintf(stderr,
                     "[gep-watchdog] source '%s' has made no progress for "
                     "%.0f ms (threshold %.0f ms)\n",
                     src.name, static_cast<double>(age) / 1e6, threshold_ms);
      } else if (inc == kIncidentWarned && s.opts.dump_on_stall) {
        src.incident.store(kIncidentDumped, std::memory_order_relaxed);
        s.dumps.fetch_add(1, std::memory_order_relaxed);
        obs_dumps().inc();
        const char* path = flight::dump_path();
        const bool ok = flight::dump(path, flightfmt::kReasonWatchdog);
        std::fprintf(stderr,
                     "[gep-watchdog] source '%s' still stalled; flight "
                     "dump %s -> %s\n",
                     src.name, ok ? "written" : "FAILED", path);
      }
    }
  }
}

}  // namespace

bool Watchdog::start(const Options& opts) {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.run_mu);
  if (s.running) return false;
  s.opts = opts;
  s.stop = false;
  s.running = true;
  s.enabled.store(true, std::memory_order_release);
  // Fresh run: sources keep their registration but start a new incident
  // history and a fresh beat baseline (a source that last beat hours ago
  // is not retroactively stalled).
  const std::uint64_t now = flight::now_ns();
  for (Source& src : s.sources) {
    src.incident.store(kIncidentNone, std::memory_order_relaxed);
    if (src.used.load(std::memory_order_acquire) &&
        !src.idle.load(std::memory_order_relaxed)) {
      src.last_beat_ns.store(now, std::memory_order_relaxed);
    }
  }
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
    s.enabled.store(false, std::memory_order_release);
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

std::uint64_t Watchdog::stalls_detected() {
  return state().stalls.load(std::memory_order_relaxed);
}
std::uint64_t Watchdog::dumps_written() {
  return state().dumps.load(std::memory_order_relaxed);
}

WatchdogStatus Watchdog::status() {
  State& s = state();
  WatchdogStatus st;
  st.stalls = s.stalls.load(std::memory_order_relaxed);
  st.dumps = s.dumps.load(std::memory_order_relaxed);
  // Scan the source table for open incidents; report the one with the
  // oldest beat. Same lock-free reads (used -> idle -> incident) the
  // monitor uses, so a query between polls still sees the incident the
  // monitor opened — and a source that beat since (incident closed at
  // the next poll, but already below threshold now) is reported stalled
  // only until that poll, which matches what the operator cares about.
  const std::uint64_t now = flight::now_ns();
  std::uint64_t worst_age = 0;
  for (int i = 0; i < kMaxSources; ++i) {
    Source& src = s.sources[i];
    if (!src.used.load(std::memory_order_acquire)) continue;
    if (src.idle.load(std::memory_order_relaxed)) continue;
    if (src.incident.load(std::memory_order_relaxed) == kIncidentNone)
      continue;
    const std::uint64_t beat = src.last_beat_ns.load(std::memory_order_relaxed);
    const std::uint64_t age = now > beat ? now - beat : 0;
    if (st.state != WatchdogStatus::State::Stalled || age > worst_age) {
      st.state = WatchdogStatus::State::Stalled;
      st.source = src.name;
      st.age_ms = static_cast<double>(age) / 1e6;
      worst_age = age;
    }
  }
  if (st.state != WatchdogStatus::State::Stalled && st.stalls > 0) {
    st.state = WatchdogStatus::State::Recovered;
  }
  return st;
}

int Watchdog::register_source(const char* name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.reg_mu);
  for (int i = 0; i < kMaxSources; ++i) {
    Source& src = s.sources[i];
    if (src.used.load(std::memory_order_relaxed)) continue;
    std::strncpy(src.name, name, sizeof src.name - 1);
    src.name[sizeof src.name - 1] = '\0';
    src.idle.store(true, std::memory_order_relaxed);
    src.incident.store(kIncidentNone, std::memory_order_relaxed);
    src.last_beat_ns.store(flight::now_ns(), std::memory_order_relaxed);
    src.used.store(true, std::memory_order_release);
    return i;
  }
  return -1;
}

void Watchdog::unregister_source(int id) {
  if (id < 0 || id >= kMaxSources) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.reg_mu);
  Source& src = s.sources[id];
  // The monitor reads used -> idle -> last_beat without taking reg_mu,
  // so clear in the order that keeps every interleaving benign: idle
  // first (idle sources are exempt from checks), then a fresh beat (a
  // poll that still reads idle == false sees age ~ 0, not the stale
  // timestamp of the driver's last leaf), and used last. The previous
  // order (used, then idle) left a window where a finished driver's
  // source looked active-with-stale-beat and tripped stall_detect
  // during teardown.
  src.idle.store(true, std::memory_order_relaxed);
  src.last_beat_ns.store(flight::now_ns(), std::memory_order_relaxed);
  src.incident.store(kIncidentNone, std::memory_order_relaxed);
  src.used.store(false, std::memory_order_release);
}

void Watchdog::beat(int id) {
  if (id < 0 || id >= kMaxSources) return;
  if (!state().enabled.load(std::memory_order_relaxed)) return;
  beat_at(id, flight::now_ns());
}

void Watchdog::set_idle(int id) {
  if (id < 0 || id >= kMaxSources) return;
  State& s = state();
  s.sources[id].idle.store(true, std::memory_order_relaxed);
}

void Watchdog::attach_thread(int id) { t_source = id; }
void Watchdog::detach_thread() { t_source = -1; }
int Watchdog::attached_thread() { return t_source; }

void Watchdog::beat_this_thread(std::uint64_t now_ns) {
  if (t_source < 0) return;
  if (!state().enabled.load(std::memory_order_relaxed)) return;
  beat_at(t_source, now_ns);
}

}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS
