// Decoder for flight-recorder dumps (*.gepdump).
//
//   gep_events DUMP.gepdump                  # human-readable text
//   gep_events DUMP.gepdump --chrome out.json  # chrome://tracing view
//   gep_events DUMP.gepdump --metrics        # embedded registry JSON
//   gep_events DUMP.gepdump --prom           # same, as Prometheus text
//
// --prom renders through obs/expo.hpp — the identical formatter behind
// the live stat server's /metrics — so the offline and live exposition
// cannot drift.
//
// The format is host-endian binary (obs/flight_recorder.hpp,
// namespace flightfmt): FileHeader, per-thread ThreadHeader + events
// (oldest first), then a length-prefixed metrics-registry snapshot.
// Crash dumps are frequently truncated — the decoder prints whatever
// prefix is intact and says so, instead of failing.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/expo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"

namespace {

using namespace gep::obs::flightfmt;

struct ThreadDump {
  ThreadHeader header{};
  std::vector<Event> events;
};

struct Dump {
  FileHeader header{};
  std::vector<ThreadDump> threads;
  std::string metrics_json;
  bool truncated = false;
};

template <class T>
bool read_pod(std::ifstream& in, T* out) {
  in.read(reinterpret_cast<char*>(out), sizeof(T));
  return in.gcount() == static_cast<std::streamsize>(sizeof(T));
}

bool load(const char* path, Dump* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open file";
    return false;
  }
  if (!read_pod(in, &out->header) ||
      std::memcmp(out->header.magic, kMagic, sizeof kMagic) != 0) {
    *err = "not a gepdump (bad magic)";
    return false;
  }
  if (out->header.version != kVersion) {
    *err = "unsupported gepdump version " +
           std::to_string(out->header.version);
    return false;
  }
  for (std::uint32_t t = 0; t < out->header.thread_count; ++t) {
    ThreadDump td;
    if (!read_pod(in, &td.header)) {
      out->truncated = true;
      return true;
    }
    td.header.name[sizeof td.header.name - 1] = '\0';
    td.events.reserve(td.header.count);
    for (std::uint32_t e = 0; e < td.header.count; ++e) {
      Event ev;
      if (!read_pod(in, &ev)) {
        out->truncated = true;
        out->threads.push_back(std::move(td));
        return true;
      }
      td.events.push_back(ev);
    }
    out->threads.push_back(std::move(td));
  }
  std::uint32_t metrics_len = 0;
  if (!read_pod(in, &metrics_len)) {
    out->truncated = true;
    return true;
  }
  if (metrics_len > 0) {
    out->metrics_json.resize(metrics_len);
    in.read(out->metrics_json.data(), metrics_len);
    if (in.gcount() != static_cast<std::streamsize>(metrics_len)) {
      out->metrics_json.resize(static_cast<std::size_t>(in.gcount()));
      out->truncated = true;
    }
  }
  return true;
}

std::string reason_str(std::int32_t reason) {
  switch (reason) {
    case kReasonManual: return "manual";
    case kReasonWatchdog: return "watchdog stall";
    default: break;
  }
  if (reason > 0) return "signal " + std::to_string(reason);
  return "unknown (" + std::to_string(reason) + ")";
}

// Type-aware payload rendering for the text view. A stall names the
// stalled thread from the dump's own thread headers.
std::string describe(const Dump& d, std::uint64_t w) {
  const unsigned e = ev_of(w);
  const std::uint64_t p = payload_of(w);
  char buf[96];
  switch (e) {
    case kPageIn:
    case kPageOut:
    case kEvict:
    case kPrefetchIssue:
    case kPrefetchDone:
      std::snprintf(buf, sizeof buf, "file %d page %" PRIu64, page_file(p),
                    page_page(p));
      return buf;
    case kIoRetry:
    case kCrcRecover:
    case kIoHardFail:
      std::snprintf(buf, sizeof buf, "page %" PRIu64, p);
      return buf;
    case kTaskSteal:
      std::snprintf(buf, sizeof buf, "worker %d <- worker %d",
                    steal_thief(p), steal_victim(p));
      return buf;
    case kTaskPark:
    case kTaskWake:
      std::snprintf(buf, sizeof buf, "worker %" PRIu64, p);
      return buf;
    case kRecEnter:
    case kRecLeave:
      std::snprintf(buf, sizeof buf, "kind %c depth %d m %" PRIu64,
                    rec_kind(p), rec_depth(p), rec_m(p));
      return buf;
    case kGuardTrip:
      std::snprintf(buf, sizeof buf, "pivot k=%" PRIu64, p);
      return buf;
    case kStallDetect: {
      std::snprintf(buf, sizeof buf, "tid %" PRIu64, p);
      std::string s = buf;
      for (const ThreadDump& td : d.threads) {
        if (td.header.tid == p) return s + " (" + td.header.name + ")";
      }
      return s;
    }
    case kSignal:
      std::snprintf(buf, sizeof buf, "sig %" PRIu64, p);
      return buf;
    case kMark:
      std::snprintf(buf, sizeof buf, "0x%" PRIx64, p);
      return buf;
    case kCkptBegin:
    case kCkptEnd:
      std::snprintf(buf, sizeof buf, "seq %" PRIu64, p);
      return buf;
    case kCkptSkipped:
      std::snprintf(buf, sizeof buf, "%s",
                    p == 1 ? "unchanged since last snapshot"
                           : p == 2 ? "aborted leaf poisoned job"
                                    : "reason unknown");
      return buf;
    default:
      std::snprintf(buf, sizeof buf, "payload 0x%" PRIx64, p);
      return buf;
  }
}

void print_text(const Dump& d) {
  std::printf("gepdump v%u  reason: %s  threads: %u%s\n",
              d.header.version, reason_str(d.header.reason).c_str(),
              d.header.thread_count, d.truncated ? "  [TRUNCATED]" : "");
  for (const ThreadDump& td : d.threads) {
    std::printf("\n-- %s (tid %u): %u event(s) shown, %" PRIu64
                " recorded --\n",
                td.header.name, td.header.tid, td.header.count,
                td.header.seq);
    for (const Event& ev : td.events) {
      // Relative to the dump instant: "-123.456ms" means that long ago.
      const double rel_ms =
          (static_cast<double>(ev.t_ns) -
           static_cast<double>(d.header.dump_ns)) /
          1e6;
      std::printf("  %+12.3fms  %-14s %s\n", rel_ms,
                  ev_name(ev_of(ev.w)), describe(d, ev.w).c_str());
    }
  }
  if (!d.metrics_json.empty()) {
    std::printf("\nmetrics snapshot: %zu bytes (print with --metrics)\n",
                d.metrics_json.size());
  } else {
    std::printf("\nno metrics section (signal-context dump)\n");
  }
}

// Chrome trace_event view: recursion enter/leave pairs become duration
// events (B/E), everything else instants, one track per thread.
bool write_chrome(const Dump& d, const char* path) {
  std::ofstream os(path);
  if (!os) return false;
  gep::obs::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const ThreadDump& td : d.threads) {
    for (const Event& ev : td.events) {
      const unsigned e = ev_of(ev.w);
      const double us = static_cast<double>(ev.t_ns) / 1e3;
      w.begin_object();
      if (e == kRecEnter || e == kRecLeave) {
        const std::uint64_t p = payload_of(ev.w);
        char name[32];
        std::snprintf(name, sizeof name, "%c m=%" PRIu64, rec_kind(p),
                      rec_m(p));
        w.kv("name", name);
        w.kv("ph", e == kRecEnter ? "B" : "E");
      } else {
        w.kv("name", ev_name(e));
        w.kv("ph", "i");
        w.kv("s", "t");
      }
      w.kv("ts", us);
      w.kv("pid", 1);
      w.kv("tid", static_cast<std::int64_t>(td.header.tid));
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  const char* dump_path = nullptr;
  const char* chrome_path = nullptr;
  bool show_metrics = false;
  bool show_prom = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--chrome") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--chrome needs an output path\n");
        return 2;
      }
      chrome_path = argv[++i];
    } else if (a == "--metrics") {
      show_metrics = true;
    } else if (a == "--prom") {
      show_prom = true;
    } else if (a == "-h" || a == "--help") {
      std::printf(
          "usage: %s DUMP.gepdump [--chrome OUT.json] [--metrics|--prom]\n"
          "Decodes a flight-recorder dump to text, a chrome://tracing\n"
          "JSON, or the embedded metrics-registry snapshot (--metrics:\n"
          "raw JSON; --prom: Prometheus text exposition).\n",
          argv[0]);
      return 0;
    } else if (dump_path == nullptr) {
      dump_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (dump_path == nullptr) {
    std::fprintf(stderr, "usage: %s DUMP.gepdump [--chrome OUT.json]"
                 " [--metrics]\n", argv[0]);
    return 2;
  }
  Dump d;
  std::string err;
  if (!load(dump_path, &d, &err)) {
    std::fprintf(stderr, "%s: %s\n", dump_path, err.c_str());
    return 1;
  }
  if (show_metrics || show_prom) {
    if (d.metrics_json.empty()) {
      std::fprintf(stderr, "%s: no metrics section\n", dump_path);
      return 1;
    }
    if (show_prom) {
      gep::obs::JsonValue v;
      std::string perr;
      if (!gep::obs::JsonValue::parse(d.metrics_json, &v, &perr)) {
        std::fprintf(stderr, "%s: bad metrics JSON: %s\n", dump_path,
                     perr.c_str());
        return 1;
      }
      gep::obs::expo::BuildInfo info = gep::obs::expo::env_build_info();
      info.obs_enabled = true;  // the dump came from an instrumented build
      std::fputs(
          gep::obs::expo::exposition(
              gep::obs::expo::samples_from_snapshot_json(v), info)
              .c_str(),
          stdout);
      return 0;
    }
    std::printf("%s\n", d.metrics_json.c_str());
    return 0;
  }
  print_text(d);
  if (chrome_path != nullptr) {
    if (!write_chrome(d, chrome_path)) {
      std::fprintf(stderr, "cannot write %s\n", chrome_path);
      return 1;
    }
    std::printf("chrome trace: %s (open in chrome://tracing)\n",
                chrome_path);
  }
  return 0;
}
