// Flight recorder: an always-on, lock-free, per-thread ring buffer of
// compact binary events (page traffic, retries, CRC recoveries, task
// steals/parks, recursion enter/leave, numeric-guard trips).
//
// The recorder answers "what was the process doing just before it hung
// or died": each thread appends 16-byte events to its own fixed ring
// with plain stores (no locks, no fences beyond one release store per
// event), and a dump path walks every ring and writes the last-N events
// per thread plus a metrics-registry snapshot to a `*.gepdump` file.
// The dump path comes in two flavors:
//
//   * programmatic (flight::dump) — used by the stall watchdog and the
//     benches' clean-shutdown path; includes the metrics JSON.
//   * signal handler (install_crash_handlers) — SIGSEGV / SIGABRT /
//     SIGBUS / SIGFPE write an events-only dump with raw write(2)
//     calls (async-signal-safe), then re-raise; SIGUSR1 has a dump
//     thread write a dump with metrics, and the process continues.
//
// The ring also keeps the span tracer's log (obs/trace.hpp), a second
// view of the recursion nodes it records: a vector behind a per-ring
// mutex that only its owner (to append) and the Tracer take, never the
// dump path or a signal handler. And it is what the stall watchdog
// (obs/watchdog.hpp) watches: a watched ring's newest event is its
// thread's heartbeat.
//
// install_job_signal_handlers() adds cooperative SIGINT/SIGTERM
// handling for long OOC jobs: the first signal records the event, sets
// a stop flag the compute leaves poll (throw_if_stop_requested), and
// restores the default disposition so a second signal kills for real.
// The job unwinds via JobCancelled, letting the bench flush the page
// cache's write-behind instead of dying mid-write.
//
// GEP_OBS=0 compiles the recorder to inert stubs (dump returns false,
// stop_requested is constant false) in inline namespace obs::off; the
// dump *format* below stays compiled in both builds so tools/gep_events
// can always decode a file produced by an enabled build.
#pragma once

#ifndef GEP_OBS
#define GEP_OBS 1
#endif

#include <cstdint>
#include <stdexcept>

#if GEP_OBS
#include <atomic>
#include <functional>

#include "obs/trace.hpp"
#endif

namespace gep::obs {

// Thrown by throw_if_stop_requested() once a job signal arrived; the
// same type in both builds so catch sites are configuration-agnostic.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("GEP job cancelled by signal") {}
};

// --- dump format (always compiled: the decoder must build at GEP_OBS=0) ---
//
// A .gepdump is host-endian binary:
//   FileHeader
//   thread_count x { ThreadHeader, count x Event }   (events oldest first)
//   u32 metrics_len, metrics_len bytes of registry-snapshot JSON
// A file truncated anywhere after the header still decodes up to the
// truncation point (crash dumps stop wherever the handler got to).
namespace flightfmt {

inline constexpr char kMagic[8] = {'G', 'E', 'P', 'D', 'U', 'M', 'P', '1'};
inline constexpr std::uint32_t kVersion = 1;

// Dump reasons: >0 is the signal number that triggered the dump.
inline constexpr std::int32_t kReasonManual = 0;
inline constexpr std::int32_t kReasonWatchdog = -1;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::int32_t reason;
  std::uint64_t dump_ns;       // steady-clock time of the dump
  std::uint32_t thread_count;  // ThreadHeader sections that follow
  std::uint32_t reserved;
};

struct ThreadHeader {
  char name[24];            // NUL-terminated thread role ("ws-worker-3")
  std::uint32_t tid;        // registration-order thread id (1-based)
  std::uint32_t count;      // events following this header
  std::uint64_t seq;        // lifetime events recorded (>= count)
  std::uint64_t reserved;
};

// type in the top 8 bits, a type-specific payload in the low 56.
struct Event {
  std::uint64_t t_ns;
  std::uint64_t w;
};

enum Ev : unsigned {
  kNone = 0,
  kPageIn,         // payload: file/page
  kPageOut,        // payload: file/page
  kEvict,          // payload: file/page
  kPrefetchIssue,  // payload: file/page
  kPrefetchDone,   // payload: file/page
  kIoRetry,        // payload: page
  kCrcRecover,     // payload: page
  kIoHardFail,     // payload: page
  kTaskSteal,      // payload: thief/victim worker ids
  kTaskPark,       // payload: pool worker id (0 on other threads)
  kTaskWake,       // payload: pool worker id (0 on other threads)
  kRecEnter,       // payload: kind/depth/m
  kRecLeave,       // payload: kind/depth/m
  kGuardTrip,      // payload: global pivot index k
  kStallDetect,    // payload: the stalled thread's tid
  kSignal,         // payload: signal number
  kMark,           // payload: caller-defined (tests)
  // DAG task runtime (parallel/task_graph.hpp). Appended after kMark so
  // dumps from older builds keep decoding with the same numbering.
  kTaskReady,      // payload: task id (entered the lookahead window)
  kTaskRun,        // payload: task id (started executing)
  kTaskRetire,     // payload: task id (finished; successors released)
  // Checkpoint/restart (extmem/checkpoint.hpp). Appended for the same
  // decode-stability reason as above.
  kCkptBegin,      // payload: snapshot sequence number
  kCkptEnd,        // payload: snapshot sequence number
  kCkptSkipped,    // payload: reason (1 = unchanged, 2 = aborted leaf)
  kEvCount
};

inline const char* ev_name(unsigned e) {
  static const char* names[kEvCount] = {
      "none",           "page_in",     "page_out",   "evict",
      "prefetch_issue", "prefetch_done", "io_retry", "crc_recover",
      "io_hard_fail",   "task_steal",  "task_park",  "task_wake",
      "rec_enter",      "rec_leave",   "guard_trip", "stall_detect",
      "signal",         "mark",        "task_ready", "task_run",
      "task_retire",    "ckpt_begin",  "ckpt_end",   "ckpt_skipped"};
  return e < kEvCount ? names[e] : "?";
}

inline constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 56) - 1;

inline constexpr std::uint64_t pack(Ev e, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(e) << 56) | (payload & kPayloadMask);
}
inline constexpr unsigned ev_of(std::uint64_t w) {
  return static_cast<unsigned>(w >> 56);
}
inline constexpr std::uint64_t payload_of(std::uint64_t w) {
  return w & kPayloadMask;
}

// Page events: file id in bits 40..55, page number in bits 0..39.
inline constexpr std::uint64_t pack_page(int file_id, std::uint64_t page) {
  return (static_cast<std::uint64_t>(file_id & 0xFFFF) << 40) |
         (page & ((std::uint64_t{1} << 40) - 1));
}
inline constexpr int page_file(std::uint64_t payload) {
  return static_cast<int>((payload >> 40) & 0xFFFF);
}
inline constexpr std::uint64_t page_page(std::uint64_t payload) {
  return payload & ((std::uint64_t{1} << 40) - 1);
}

// Recursion events: box kind char in bits 0..7, depth in 8..15, box
// side m in 16..55.
inline constexpr std::uint64_t pack_rec(char kind, int depth,
                                        std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned char>(kind)) |
         (static_cast<std::uint64_t>(depth & 0xFF) << 8) |
         ((m & ((std::uint64_t{1} << 40) - 1)) << 16);
}
inline constexpr char rec_kind(std::uint64_t payload) {
  return static_cast<char>(payload & 0xFF);
}
inline constexpr int rec_depth(std::uint64_t payload) {
  return static_cast<int>((payload >> 8) & 0xFF);
}
inline constexpr std::uint64_t rec_m(std::uint64_t payload) {
  return payload >> 16;
}

// Steal events: thief worker in bits 0..15, victim in 16..31.
inline constexpr std::uint64_t pack_steal(int thief, int victim) {
  return static_cast<std::uint64_t>(thief & 0xFFFF) |
         (static_cast<std::uint64_t>(victim & 0xFFFF) << 16);
}
inline constexpr int steal_thief(std::uint64_t payload) {
  return static_cast<int>(payload & 0xFFFF);
}
inline constexpr int steal_victim(std::uint64_t payload) {
  return static_cast<int>((payload >> 16) & 0xFFFF);
}

}  // namespace flightfmt

#if GEP_OBS

inline namespace on {
namespace flight {

// Events each thread's ring retains (the "last N" a dump shows).
inline constexpr std::uint32_t kRingEvents = 4096;

// Appends one event to the calling thread's ring. Lock-free and
// wait-free after the thread's first call (which allocates + registers
// the ring); roughly a clock read and a 16-byte store. The second form
// stamps it with a now_ns() the caller already read.
void record(flightfmt::Ev type, std::uint64_t payload = 0);
void record(flightfmt::Ev type, std::uint64_t payload, std::uint64_t t_ns);

// Spans a ring's log holds; later spans are counted as dropped, so a
// runaway trace degrades instead of exhausting memory (~40 MB a ring).
inline constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

// Appends a traced span to the calling thread's ring's span log.
void log_span(const TraceEvent& e);

// Calls fn on every ring's span log (tid = ring id) under that ring's
// mutex, in ring order.
void for_each_span_log(const std::function<void(ThreadTrace&)>& fn);

// Names the calling thread's ring in dumps ("pc-asyncio"); truncated to
// the ThreadHeader field. Threads default to "thread-<tid>".
void set_thread_name(const char* name);

// Where the signal handlers (and argument-less dumps) write. Default
// "flight.gepdump" in the CWD; $GEP_FLIGHT_DUMP overrides; an explicit
// set_dump_path wins over both. Path length is capped (it must live in
// static storage for the handlers); over-long paths are rejected.
void set_dump_path(const char* path);
const char* dump_path();

// Writes every thread's recent events plus the metrics snapshot.
// reason: a flightfmt::kReason* value or a signal number. Returns false
// if the file cannot be opened (or another dump is mid-flight).
bool dump(const char* path, std::int32_t reason = flightfmt::kReasonManual);
bool dump_default(std::int32_t reason = flightfmt::kReasonManual);

// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers (events-only dump,
// then re-raise with the default disposition) and SIGUSR1 (a dump thread
// started here writes a dump with metrics, then the run goes on). Idempotent.
void install_crash_handlers();

// Installs SIGINT/SIGTERM: record the signal, dump, set the stop flag,
// restore the default disposition (second signal kills). Idempotent.
void install_job_signal_handlers();

// Cooperative cancellation flag set by the job signal handlers.
bool stop_requested();
void request_stop();
void reset_stop();  // tests / repeated bench legs

// --- the stall watchdog's view (obs/watchdog.hpp) -------------------------
// A thread inside an obs::WatchdogThreadSource scope has its ring
// *watched*. A ring that a new thread takes over starts unwatched.
struct Watch {
  bool watched = false;
  char name[24] = {};  // the ring's name (ThreadHeader::name)
};

// The calling thread's watch state, and its setter, which also names
// the ring. A watch that starts closes any incident the ring still has.
Watch watch_state();
void set_watch(const Watch& w);

// One watched ring as the watchdog's monitor sees it. The ring keeps
// the watchdog's incident state for its thread, so the watchdog needs
// no table of its own.
struct WatchedRing {
  std::uint32_t tid = 0;
  char name[24] = {};
  std::uint64_t last_ns = 0;  // the newest event's stamp; 0: no events
  unsigned last_ev = flightfmt::kNone;  // the newest event's type
  std::atomic<std::uint8_t>* incident = nullptr;
};

// Calls fn on every watched ring of a live thread, in ring order.
void for_each_watched(const std::function<void(const WatchedRing&)>& fn);

// Rings allocated so far. A thread's ring is reused by a later thread
// once it exits, so this tracks the peak number of recording threads.
int ring_count();

// Test support: forget all recorded events (rings stay registered).
void clear();

std::uint64_t now_ns();

}  // namespace flight

inline void throw_if_stop_requested() {
  if (flight::stop_requested()) throw JobCancelled();
}

}  // namespace on

#else  // GEP_OBS == 0: inert stubs, dump degrades gracefully.

inline namespace off {
namespace flight {

inline constexpr std::uint32_t kRingEvents = 0;

inline void record(flightfmt::Ev, std::uint64_t = 0) {}
inline void set_thread_name(const char*) {}
inline void set_dump_path(const char*) {}
inline const char* dump_path() { return ""; }
inline bool dump(const char*, std::int32_t = flightfmt::kReasonManual) {
  return false;
}
inline bool dump_default(std::int32_t = flightfmt::kReasonManual) {
  return false;
}
inline void install_crash_handlers() {}
inline void install_job_signal_handlers() {}
inline bool stop_requested() { return false; }
inline void request_stop() {}
inline void reset_stop() {}
inline int ring_count() { return 0; }
inline void clear() {}
inline std::uint64_t now_ns() { return 0; }

}  // namespace flight

inline void throw_if_stop_requested() {}

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
