// Umbrella header for the observability layer.
//
//   registry.hpp    — named counters / gauges / log2 histograms,
//                     per-thread sharded, lock-free on the hot path
//   hw_counters.hpp — perf_event_open wrapper (cycles, instructions,
//                     L1d / LLC misses) with graceful no-op fallback
//   trace.hpp       — the typed recursion's span log (kept in the flight
//                     recorder's rings), exported as Chrome trace JSON
//   profile.hpp     — aggregation pass over the tracer: per-(kind,depth)
//                     attribution, folded flamegraph stacks, sampled
//                     leaf roofline points
//   json.hpp        — the streaming JSON writer the exporters share
//   json_read.hpp   — the matching reader (manifest / diff tooling)
//   flight_recorder.hpp — always-on per-thread event rings with a
//                     signal-handler *.gepdump path (tools/gep_events);
//                     each ring also keeps its thread's span log
//   watchdog.hpp    — stall monitor over the watched flight rings
//                     (counter -> stderr -> flight dump escalation)
//   progress.hpp    — percent-complete / ETA from the typed engine's
//                     work counters vs the closed-form totals
//   io_model.hpp    — predicted Θ(n³/(B√M)) block transfers for the
//                     measured-vs-bound ratio in the OOC benches
//   expo.hpp        — Prometheus text exposition shared by the live
//                     /metrics endpoint and `gep_events --prom`
//   stat_server.hpp — embedded HTTP exporter (/metrics, /healthz,
//                     /progress, /profile, /io, /flight?dump=1)
//
// Compile-time switch: GEP_OBS (default 1; CMake -DGEP_OBS=0 turns every
// producer into an inline no-op stub — the default hot paths carry no
// instrumentation code at all). See docs/OBSERVABILITY.md.
#pragma once

#include "obs/expo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hw_counters.hpp"
#include "obs/io_model.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/stat_server.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace gep::obs {

#if GEP_OBS

inline namespace on {

// Held by every node of the typed recursion that runs (gep/typed.hpp):
// the one producer per node. It reads the clock once on entry and once
// on exit, and with those two timestamps records the flight-recorder
// enter/leave events (the stall watchdog's heartbeat, and a wedged
// worker's dump shows the box it never left) and, while the tracer is
// active, appends the node's span to its thread's ring.
class NodeScope {
 public:
  NodeScope(char kind, int depth, long long i0, long long j0, long long k0,
            long long m)
      : w_(flightfmt::pack_rec(kind, depth, static_cast<std::uint64_t>(m))),
        span_{flight::now_ns(),
              0,
              static_cast<std::uint32_t>(i0),
              static_cast<std::uint32_t>(j0),
              static_cast<std::uint32_t>(k0),
              static_cast<std::uint32_t>(m),
              static_cast<std::uint16_t>(depth),
              kind} {
    flight::record(flightfmt::kRecEnter, w_, span_.t0_ns);
  }
  ~NodeScope() {
    const std::uint64_t t1 = flight::now_ns();
    flight::record(flightfmt::kRecLeave, w_, t1);
    if (!Tracer::active()) return;
    const std::uint64_t base = Tracer::base_ns();
    if (span_.t0_ns < base) return;  // entered before this trace started
    span_.t0_ns -= base;
    span_.t1_ns = t1 - base;
    flight::log_span(span_);
  }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  std::uint64_t w_;  // flightfmt::pack_rec(kind, depth, m)
  TraceEvent span_;  // t0_ns absolute until logged
};

}  // namespace on

#else  // GEP_OBS == 0

inline namespace off {

class NodeScope {
 public:
  NodeScope(char, int, long long, long long, long long, long long) {}
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
