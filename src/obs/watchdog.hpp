// Stall watchdog: heartbeat sources plus a monitor thread.
//
// Long OOC jobs hang in well-known places — an async I/O worker stuck
// behind a latency burst, a work-stealing worker wedged in a leaf, a
// recursion driver blocked on a pin. Each of those loops registers a
// heartbeat source and beats it every iteration (a relaxed clock store,
// and nothing at all while the watchdog is not running). The monitor
// thread polls at ~threshold/4 and escalates a source whose age exceeds
// the threshold while active:
//
//   1st detection  -> obs counter `obs.watchdog.stalls` + stderr warning
//   still stalled  -> flight-recorder dump (`obs.watchdog.dumps`), once
//                     per incident
//
// so a stall is reported within 1.25x the threshold and dumped within
// 1.5x. A source that beats again closes its incident. Sources mark
// themselves idle while legitimately waiting for work (a parked worker
// never false-positives).
//
// The watchdog is off by default; benches start it via $GEP_WATCHDOG_MS
// (start_from_env), tests explicitly. GEP_OBS=0 compiles everything to
// inert stubs.
#pragma once

#ifndef GEP_OBS
#define GEP_OBS 1
#endif

#include <cstdint>
#include <string>

namespace gep::obs {

// Queryable stall state (same shape in both builds) so the stat server
// and tests read health directly instead of parsing stderr.
//   Healthy   — watchdog off, or running with no incident ever recorded
//   Stalled   — at least one active source has an open incident;
//               source/age_ms describe the worst (oldest-beat) offender
//   Recovered — no open incident, but stalls were detected earlier
struct WatchdogStatus {
  enum class State { Healthy, Stalled, Recovered };
  State state = State::Healthy;
  std::string source;     // worst stalled source's name (Stalled only)
  double age_ms = 0.0;    // ms since that source's last beat (Stalled only)
  std::uint64_t stalls = 0;
  std::uint64_t dumps = 0;

  bool healthy() const { return state != State::Stalled; }
};

#if GEP_OBS

inline namespace on {

class Watchdog {
 public:
  struct Options {
    double threshold_ms = 1000.0;  // no-beat age that counts as a stall
    double poll_ms = 0.0;          // 0: threshold/4 (clamped to >= 5ms)
    bool dump_on_stall = true;     // escalate to a flight-recorder dump
  };

  // Starts the monitor thread. Returns false if already running.
  static bool start(const Options& opts);
  // Reads $GEP_WATCHDOG_MS; <= 0 or unset leaves the watchdog off.
  static bool start_from_env();
  static void stop();
  static bool running();

  static std::uint64_t stalls_detected();
  static std::uint64_t dumps_written();

  // Current stall state, computed from the source table (not from the
  // monitor's last poll — a query between polls still sees an open
  // incident). Safe to call from any thread, including while stopped.
  static WatchdogStatus status();

  // --- heartbeat sources ---------------------------------------------------
  // Registration is mutex-protected and rare (thread/pool startup); beat
  // and set_idle are single relaxed stores. Ids are recycled after
  // unregister. Returns -1 when the fixed table is full.
  static int register_source(const char* name);
  static void unregister_source(int id);
  static void beat(int id);          // marks the source active
  static void set_idle(int id);      // waiting for work: exempt from checks

  // Thread-attached beats: loops that run work for a registered source
  // (worker bodies, recursion nodes) bind the source to their thread
  // once and then beat it with no id plumbing, stamped with a
  // flight::now_ns() the caller already read. No-ops for unattached
  // threads, and a single relaxed load while the watchdog is stopped.
  static void attach_thread(int id);
  static void detach_thread();
  static int attached_thread();  // -1 when none
  static void beat_this_thread(std::uint64_t now_ns);
};

// RAII activity window for the typed-recursion driver: registers a
// source, attaches it to this thread and beats once; detaches and
// unregisters on scope exit (so a finished driver can't go "stale
// active" and trip the monitor).
class WatchdogThreadSource {
 public:
  explicit WatchdogThreadSource(const char* name) {
    prev_ = Watchdog::attached_thread();
    id_ = Watchdog::register_source(name);
    Watchdog::attach_thread(id_);
    Watchdog::beat(id_);
  }
  ~WatchdogThreadSource() {
    // The driver's work is done: go idle BEFORE detaching/unregistering
    // so a monitor poll landing in this window cannot see an active
    // source whose last beat is the run's final leaf (a stall_detect
    // false positive during teardown).
    Watchdog::set_idle(id_);
    Watchdog::attach_thread(prev_);
    Watchdog::unregister_source(id_);
  }
  WatchdogThreadSource(const WatchdogThreadSource&) = delete;
  WatchdogThreadSource& operator=(const WatchdogThreadSource&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int prev_ = -1;
};

}  // namespace on

#else  // GEP_OBS == 0

inline namespace off {

class Watchdog {
 public:
  struct Options {
    double threshold_ms = 1000.0;
    double poll_ms = 0.0;
    bool dump_on_stall = true;
  };
  static bool start(const Options&) { return false; }
  static bool start_from_env() { return false; }
  static void stop() {}
  static bool running() { return false; }
  static std::uint64_t stalls_detected() { return 0; }
  static std::uint64_t dumps_written() { return 0; }
  static WatchdogStatus status() { return {}; }
  static int register_source(const char*) { return -1; }
  static void unregister_source(int) {}
  static void beat(int) {}
  static void set_idle(int) {}
  static void attach_thread(int) {}
  static void detach_thread() {}
  static int attached_thread() { return -1; }
  static void beat_this_thread(std::uint64_t) {}
};

class WatchdogThreadSource {
 public:
  explicit WatchdogThreadSource(const char*) {}
  int id() const { return -1; }
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
