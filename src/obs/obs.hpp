// Umbrella header for the observability layer.
//
//   registry.hpp    — named counters / gauges / log2 histograms,
//                     per-thread sharded, lock-free on the hot path
//   hw_counters.hpp — perf_event_open wrapper (cycles, instructions,
//                     L1d / LLC misses) with graceful no-op fallback
//   trace.hpp       — scoped spans for the typed recursion, exported as
//                     Chrome trace_event JSON
//   profile.hpp     — aggregation pass over the tracer: per-(kind,depth)
//                     attribution, folded flamegraph stacks, sampled
//                     leaf roofline points
//   json.hpp        — the streaming JSON writer the exporters share
//   json_read.hpp   — the matching reader (manifest / diff tooling)
//   flight_recorder.hpp — always-on per-thread event rings with a
//                     signal-handler *.gepdump path (tools/gep_events)
//   watchdog.hpp    — heartbeat sources + stall monitor (counter ->
//                     stderr -> flight dump escalation)
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
#else
inline namespace off {
#endif

// Held by every node of the typed recursion that runs (gep/typed.hpp):
// a tracer span, a flight-recorder breadcrumb and a stall-watchdog
// heartbeat, so a wedged worker's dump shows the box it never left. One
// text compiled into obs::on or obs::off with its members, so GEP_OBS=0
// units stay ODR-safe beside GEP_OBS=1 libraries.
class NodeScope {
 public:
  NodeScope(char kind, int depth, long long i0, long long j0, long long k0,
            long long m)
      : span_(kind, depth, i0, j0, k0, m),
        frec_(kind, depth, static_cast<std::uint64_t>(m)) {
    Watchdog::beat_this_thread();
  }

 private:
  [[no_unique_address]] ScopedSpan span_;
  [[no_unique_address]] FlightRecScope frec_;
};

}  // namespace on/off

}  // namespace gep::obs
