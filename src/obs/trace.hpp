// Span tracer for the typed I-GEP recursion.
//
// While tracing is active, each recursion node's obs::NodeScope appends
// a span {kind, depth, quadrant origin (i0,j0,k0), box side m, t_start,
// t_end} to its thread's span log, which lives in the flight recorder's
// ring (obs/flight_recorder.hpp): a trace tid is a ring id, and a log
// passes to the next thread with its ring. Readers take each ring's log
// mutex, so a snapshot is safe while workers record. Exported as Chrome
// trace_event JSON, viewable in chrome://tracing or Perfetto
// (ui.perfetto.dev) as a flamegraph per thread.
//
// Usage:
//   obs::Tracer::start();
//   ... run an igep_* driver ...
//   obs::Tracer::stop();
//   obs::Tracer::write_chrome_trace("igep.trace.json");
//
// The bench harness drives this from the GEP_OBS_TRACE environment
// variable (value = output path). With GEP_OBS=0 everything here is an
// empty inline stub.
#pragma once

#ifndef GEP_OBS
#define GEP_OBS 1
#endif

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if GEP_OBS
#include <atomic>
#endif

namespace gep::obs {

#if GEP_OBS

inline namespace on {

struct TraceEvent {
  std::uint64_t t0_ns = 0;  // relative to Tracer::start()
  std::uint64_t t1_ns = 0;
  std::uint32_t i0 = 0, j0 = 0, k0 = 0, m = 0;
  std::uint16_t depth = 0;
  char kind = '?';  // 'A' / 'B' / 'C' / 'D' (typed recursion), free-form
};

// Copy of one ring's span log (Tracer::snapshot()); tid is the ring id.
struct ThreadTrace {
  int tid = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

class Tracer {
 public:
  static bool active() {
    return active_flag().load(std::memory_order_relaxed);
  }
  static void start();  // clears nothing; resumes appending
  static void stop();
  static void clear();  // drops all recorded spans
  static std::size_t event_count();
  static std::uint64_t dropped_count();

  // Copies every ring's span log, each under its ring's mutex: the input
  // of the profile aggregation pass (obs/profile.hpp). Safe while spans
  // are being recorded; a span that ends during the copy may or may not
  // be in it.
  static std::vector<ThreadTrace> snapshot();

  // Serializes all span logs as Chrome trace_event JSON. Returns false
  // when the file cannot be written.
  static bool write_chrome_trace(const std::string& path);

  // Value of $GEP_OBS_TRACE (the trace output path), or nullptr.
  static const char* env_path();

  // flight::now_ns() of the first start() since the last clear(); span
  // times are relative to it.
  static std::uint64_t base_ns();

 private:
  static std::atomic<bool>& active_flag();
};

}  // namespace on

#else  // GEP_OBS == 0

inline namespace off {

struct TraceEvent {};

struct ThreadTrace {
  int tid = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

class Tracer {
 public:
  static bool active() { return false; }
  static void start() {}
  static void stop() {}
  static void clear() {}
  static std::size_t event_count() { return 0; }
  static std::uint64_t dropped_count() { return 0; }
  static std::vector<ThreadTrace> snapshot() { return {}; }
  static bool write_chrome_trace(const std::string&) { return false; }
  static const char* env_path() { return nullptr; }
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
