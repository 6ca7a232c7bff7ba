// Stall watchdog: a monitor thread over the flight recorder's rings.
//
// Long OOC jobs hang in well-known places — an async I/O worker stuck
// behind a latency burst, a work-stealing worker wedged in a leaf, a
// recursion driver blocked on a pin. Each of those threads runs inside a
// WatchdogThreadSource scope, which marks its flight ring *watched*. A
// watched thread proves progress by recording flight events (every
// recursion node and DAG task records two), so its heartbeat is the
// stamp of its ring's newest event, and a thread whose newest event is
// task_park is waiting for work: exempt, so a parked worker never
// false-positives. The monitor polls at ~threshold/4 and escalates a
// watched ring whose heartbeat is older than the threshold:
//
//   1st detection  -> obs counter `obs.watchdog.stalls` + a stall_detect
//                     event naming the thread's tid + stderr warning
//   still stalled  -> flight-recorder dump (`obs.watchdog.dumps`), once
//                     per incident
//
// so a stall is reported within 1.25x the threshold and dumped within
// 1.5x. A fresh event closes the incident.
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

#include "obs/flight_recorder.hpp"

namespace gep::obs {

// Queryable stall state (same shape in both builds) so the stat server
// and tests read health directly instead of parsing stderr.
//   Healthy   — watchdog off, or running with no incident ever recorded
//   Stalled   — at least one watched thread has an open incident;
//               source/age_ms describe the worst (oldest-beat) offender
//   Recovered — no open incident, but stalls were detected earlier
struct WatchdogStatus {
  enum class State { Healthy, Stalled, Recovered };
  State state = State::Healthy;
  std::string source;     // worst stalled thread's name (Stalled only)
  double age_ms = 0.0;    // ms since its newest event (Stalled only)
  std::uint64_t stalls = 0;
  std::uint64_t dumps = 0;

  bool healthy() const { return state != State::Stalled; }
};

#if GEP_OBS

inline namespace on {

class Watchdog {
 public:
  struct Options {
    double threshold_ms = 1000.0;  // no-event age that counts as a stall
    double poll_ms = 0.0;          // 0: threshold/4 (clamped to >= 5ms)
    bool dump_on_stall = true;     // escalate to a flight-recorder dump
  };

  // Starts the monitor thread. Returns false if already running.
  static bool start(const Options& opts);
  // Reads $GEP_WATCHDOG_MS; <= 0 or unset leaves the watchdog off.
  static bool start_from_env();
  static void stop();
  static bool running();

  // The `obs.watchdog.stalls` / `obs.watchdog.dumps` counters.
  static std::uint64_t stalls_detected();
  static std::uint64_t dumps_written();

  // Current stall state, computed from the watched rings (not from the
  // monitor's last poll — a query between polls still sees an open
  // incident). Safe to call from any thread, including while stopped.
  static WatchdogStatus status();
};

// Watches the calling thread for its scope: records a task_wake (a fresh
// heartbeat), then marks the thread's ring watched and names it `name`
// (the name stall reports and /healthz give). On exit it restores the
// ring's previous watch state and name, so scopes nest.
class WatchdogThreadSource {
 public:
  explicit WatchdogThreadSource(const char* name);
  ~WatchdogThreadSource() { flight::set_watch(prev_); }
  WatchdogThreadSource(const WatchdogThreadSource&) = delete;
  WatchdogThreadSource& operator=(const WatchdogThreadSource&) = delete;

 private:
  flight::Watch prev_;
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
};

class WatchdogThreadSource {
 public:
  explicit WatchdogThreadSource(const char*) {}
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
