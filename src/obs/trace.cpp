#include "obs/trace.hpp"

#if GEP_OBS

#include <cstdlib>
#include <fstream>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace gep::obs {
inline namespace on {

namespace {

std::atomic<std::uint64_t> g_base_ns{0};

}  // namespace

std::atomic<bool>& Tracer::active_flag() {
  static std::atomic<bool> f{false};
  return f;
}

std::uint64_t Tracer::base_ns() {
  return g_base_ns.load(std::memory_order_relaxed);
}

void Tracer::start() {
  std::uint64_t unset = 0;
  g_base_ns.compare_exchange_strong(unset, flight::now_ns(),
                                    std::memory_order_relaxed);
  active_flag().store(true, std::memory_order_relaxed);
}

void Tracer::stop() { active_flag().store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  flight::for_each_span_log([](ThreadTrace& log) {
    log.events = {};  // frees it: a cleared trace holds no memory
    log.dropped = 0;
  });
  g_base_ns.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() {
  std::size_t n = 0;
  flight::for_each_span_log([&](ThreadTrace& log) { n += log.events.size(); });
  return n;
}

std::uint64_t Tracer::dropped_count() {
  std::uint64_t n = 0;
  flight::for_each_span_log([&](ThreadTrace& log) { n += log.dropped; });
  return n;
}

std::vector<ThreadTrace> Tracer::snapshot() {
  std::vector<ThreadTrace> out;
  flight::for_each_span_log([&](ThreadTrace& log) {
    if (!log.events.empty() || log.dropped != 0) out.push_back(log);
  });
  return out;
}

const char* Tracer::env_path() { return std::getenv("GEP_OBS_TRACE"); }

bool Tracer::write_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const ThreadTrace& log : snapshot()) {  // no file I/O under a lock
    for (const TraceEvent& e : log.events) {
      w.begin_object();
      w.key("name");
      char name[2] = {e.kind, 0};
      w.value(name);
      w.kv("cat", "igep");
      w.kv("ph", "X");  // complete event: ts + dur
      w.kv("pid", 1);
      w.kv("tid", log.tid);
      w.kv("ts", static_cast<double>(e.t0_ns) / 1e3);  // microseconds
      w.kv("dur", static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
      w.key("args");
      w.begin_object();
      w.kv("depth", static_cast<int>(e.depth));
      w.kv("i0", static_cast<std::uint64_t>(e.i0));
      w.kv("j0", static_cast<std::uint64_t>(e.j0));
      w.kv("k0", static_cast<std::uint64_t>(e.k0));
      w.kv("m", static_cast<std::uint64_t>(e.m));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS
