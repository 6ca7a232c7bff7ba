#include "obs/flight_recorder.hpp"

#if GEP_OBS

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>

#include "obs/registry.hpp"

namespace gep::obs {
inline namespace on {
namespace flight {

namespace {

using flightfmt::Event;
using flightfmt::FileHeader;
using flightfmt::ThreadHeader;

constexpr std::uint32_t kRingMask = kRingEvents - 1;
static_assert((kRingEvents & kRingMask) == 0, "ring size must be pow2");

// One thread's ring. Allocated on a thread's first record() and never
// freed: a dump may run (from a signal handler or the watchdog) after the
// owning thread exited, and its tail of events is exactly what such a
// dump is for. An exiting thread marks its ring free instead, and the
// next thread to start recording takes it over, so the number of rings
// follows the peak number of live threads rather than every thread the
// process ever started (each DAG solve starts a fresh pool). A ring
// taken over keeps its span log: spans of threads that ran one after the
// other share a trace tid.
//
// Events are written and read with relaxed atomic_refs: the watchdog's
// monitor and a dump read a ring while its owner records.
struct Ring {
  Event ev[kRingEvents];
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> in_use{true};
  // Set inside a WatchdogThreadSource scope; the incident byte is the
  // watchdog's (obs/watchdog.cpp). Both fit the padding before tid.
  std::atomic<bool> watched{false};
  std::atomic<std::uint8_t> incident{0};
  // Written under mu. A dump copies it without the lock (it may run in
  // a signal handler), like the events.
  char name[24] = {};
  std::uint32_t tid = 0;
  // Guards name and the tracer's span log (appended by the owner, read
  // by the Tracer). The dump path and signal handlers never take it.
  std::mutex mu;
  ThreadTrace log;
};

void set_name(Ring& r, const char* name) {
  std::lock_guard<std::mutex> lock(r.mu);
  std::strncpy(r.name, name, sizeof r.name - 1);
  r.name[sizeof r.name - 1] = '\0';
}

// Fixed global table of ring pointers: iterable from a signal handler
// with nothing but atomic loads. Threads beyond the cap still record
// into their own ring; it just never appears in dumps.
constexpr int kMaxRings = 256;
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<int> g_nrings{0};

std::atomic<bool> g_stop{false};
std::atomic<int> g_dumping{0};  // one dump at a time; extras are dropped

// Handler-visible dump path; fixed storage, set before handlers fire.
constexpr std::size_t kPathMax = 512;
char g_path[kPathMax] = "flight.gepdump";
std::atomic<bool> g_path_from_env_checked{false};

struct OldActions {
  struct sigaction segv, bus, fpe, abrt;
};

thread_local Ring* t_ring = nullptr;

// Frees the thread's ring at thread exit. Kept apart from t_ring so the
// record() fast path reads a plain pointer; only ring_slow() touches
// this one, which registers its destructor. Rings past kMaxRings are not
// in the table, so no later thread could find them: they stay leaked.
struct RingRelease {
  Ring* ring = nullptr;
  ~RingRelease() {
    if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
  }
};
thread_local RingRelease t_release;

// Takes over a ring whose thread exited. A scan of the published table
// with one CAS per candidate: lock-free, like everything a signal
// handler may reach.
Ring* claim_free_ring() {
  const int nr = std::min(g_nrings.load(std::memory_order_acquire),
                          kMaxRings);
  for (int i = 0; i < nr; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    bool free = false;
    if (r != nullptr && !r->in_use.load(std::memory_order_relaxed) &&
        r->in_use.compare_exchange_strong(free, true,
                                          std::memory_order_acq_rel)) {
      return r;
    }
  }
  return nullptr;
}

Ring* ring_slow() {
  Ring* r = claim_free_ring();
  const bool fresh = r == nullptr;
  if (fresh) {
    r = new Ring();
    r->tid = static_cast<std::uint32_t>(
        g_nrings.fetch_add(1, std::memory_order_acq_rel) + 1);
    r->log.tid = static_cast<int>(r->tid);
  }
  r->seq.store(0, std::memory_order_release);
  r->watched.store(false, std::memory_order_release);
  char name[24];
  std::snprintf(name, sizeof name, "thread-%u", r->tid);
  set_name(*r, name);
  if (r->tid <= static_cast<std::uint32_t>(kMaxRings)) {
    if (fresh) g_rings[r->tid - 1].store(r, std::memory_order_release);
    t_release.ring = r;
  }
  t_ring = r;
  return r;
}

std::uint64_t load_relaxed(std::uint64_t& word) {
  return std::atomic_ref<std::uint64_t>(word).load(std::memory_order_relaxed);
}

inline Ring& this_ring() {
  Ring* r = t_ring;
  return r != nullptr ? *r : *ring_slow();
}

// write(2) the whole buffer, tolerating short writes / EINTR. Returns
// false on a real error (the dump is then simply truncated).
bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t k = ::write(fd, p, len);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(k);
    len -= static_cast<std::size_t>(k);
  }
  return true;
}

// The events section, written with only async-signal-safe calls.
// Returns the fd still open (metrics may be appended) or -1.
int dump_events(const char* path, std::int32_t reason) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;
  const int nr = std::min(g_nrings.load(std::memory_order_acquire),
                          kMaxRings);
  FileHeader fh{};
  std::memcpy(fh.magic, flightfmt::kMagic, sizeof fh.magic);
  fh.version = flightfmt::kVersion;
  fh.reason = reason;
  fh.dump_ns = now_ns();
  fh.thread_count = static_cast<std::uint32_t>(nr);
  if (!write_all(fd, &fh, sizeof fh)) {
    ::close(fd);
    return -1;
  }
  for (int i = 0; i < nr; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) {  // registered but not yet published: empty stub
      ThreadHeader th{};
      th.tid = static_cast<std::uint32_t>(i + 1);
      write_all(fd, &th, sizeof th);
      continue;
    }
    const std::uint64_t seq = r->seq.load(std::memory_order_acquire);
    const std::uint64_t count = seq < kRingEvents ? seq : kRingEvents;
    ThreadHeader th{};
    std::memcpy(th.name, r->name, sizeof th.name);
    th.name[sizeof th.name - 1] = '\0';
    th.tid = r->tid;
    th.count = static_cast<std::uint32_t>(count);
    th.seq = seq;
    if (!write_all(fd, &th, sizeof th)) break;
    // Oldest-to-newest, each event copied out with relaxed atomic loads.
    // The owning thread may keep recording while we copy — a torn event
    // near the head is acceptable in a diagnostic dump (the decoder
    // tolerates any bit pattern).
    bool ok = true;
    for (std::uint64_t s = seq - count; s < seq && ok; ++s) {
      Event& e = r->ev[s & kRingMask];
      const Event copy{load_relaxed(e.t_ns), load_relaxed(e.w)};
      ok = write_all(fd, &copy, sizeof copy);
    }
    if (!ok) break;
  }
  return fd;
}

bool dump_impl(const char* path, std::int32_t reason, bool with_metrics) {
  int expected = 0;
  if (!g_dumping.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel)) {
    return false;  // another dump mid-flight (e.g. crash during dump)
  }
  const int fd = dump_events(path, reason);
  bool ok = fd >= 0;
  if (ok) {
    std::uint32_t len = 0;
    if (with_metrics) {
      // Allocates — callers in signal context pass with_metrics=false.
      const std::string metrics = snapshot_json();
      len = static_cast<std::uint32_t>(metrics.size());
      ok = write_all(fd, &len, sizeof len) &&
           write_all(fd, metrics.data(), metrics.size());
    } else {
      ok = write_all(fd, &len, sizeof len);
    }
    ::close(fd);
  }
  g_dumping.store(0, std::memory_order_release);
  return ok;
}

// --- signal handlers -------------------------------------------------------

OldActions g_old{};

void crash_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  // Events only: snapshot_json() allocates, which a crashed thread may
  // be holding the allocator lock for.
  dump_impl(g_path, sig, /*with_metrics=*/false);
  // Re-raise with the original disposition so the process dies with the
  // real signal (exit status, core dumps, death tests all see it).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

// SIGUSR1 asks for a dump with metrics, and snapshot_json() allocates,
// which a handler must not: it writes one byte here instead, and
// usr1_dump_loop (started by install_crash_handlers) dumps.
int g_usr1_pipe[2] = {-1, -1};

void usr1_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  const int saved_errno = errno;
  const char byte = 1;
  // Non-blocking: a full pipe already holds a pending dump request.
  [[maybe_unused]] const ssize_t k = ::write(g_usr1_pipe[1], &byte, 1);
  errno = saved_errno;
}

void usr1_dump_loop() {
  // No handler runs here (it would allocate this thread a ring), so
  // read() is never interrupted either.
  sigset_t all;
  sigfillset(&all);
  ::pthread_sigmask(SIG_BLOCK, &all, nullptr);
  char byte = 0;
  while (::read(g_usr1_pipe[0], &byte, 1) == 1) {
    dump_impl(dump_path(), SIGUSR1, /*with_metrics=*/true);
  }
}

void job_signal_handler(int sig) {
  record(flightfmt::kSignal, static_cast<std::uint64_t>(sig));
  g_stop.store(true, std::memory_order_release);
  dump_impl(g_path, sig, /*with_metrics=*/false);
  // One polite request only: restore the default so a second SIGINT
  // kills a job that is not polling stop_requested().
  ::signal(sig, SIG_DFL);
}

void init_path_from_env() {
  bool expected = false;
  if (!g_path_from_env_checked.compare_exchange_strong(expected, true)) {
    return;
  }
  if (const char* p = std::getenv("GEP_FLIGHT_DUMP")) {
    if (p[0] != '\0' && std::strlen(p) < kPathMax) {
      std::strncpy(g_path, p, kPathMax - 1);
      g_path[kPathMax - 1] = '\0';
    }
  }
}

void install_action(int sig, void (*fn)(int), struct sigaction* old) {
  struct sigaction sa{};
  sa.sa_handler = fn;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(sig, &sa, old);
}

}  // namespace

std::uint64_t now_ns() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void record(flightfmt::Ev type, std::uint64_t payload) {
  record(type, payload, now_ns());
}

void record(flightfmt::Ev type, std::uint64_t payload, std::uint64_t t_ns) {
  Ring& r = this_ring();
  const std::uint64_t s = r.seq.load(std::memory_order_relaxed);
  Event& e = r.ev[s & kRingMask];
  std::atomic_ref<std::uint64_t>(e.t_ns).store(t_ns,
                                               std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(e.w).store(flightfmt::pack(type, payload),
                                            std::memory_order_relaxed);
  // Release: a dump thread that reads seq sees the event bytes.
  r.seq.store(s + 1, std::memory_order_release);
}

void log_span(const TraceEvent& e) {
  Ring& r = this_ring();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.log.events.size() >= kMaxSpans) {
    ++r.log.dropped;
    return;
  }
  r.log.events.push_back(e);
}

// Rings past kMaxRings are in no table, so their spans are not seen.
void for_each_span_log(const std::function<void(ThreadTrace&)>& fn) {
  const int nr = std::min(g_nrings.load(std::memory_order_acquire),
                          kMaxRings);
  for (int i = 0; i < nr; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(r->mu);
      fn(r->log);
    }
  }
}

void set_thread_name(const char* name) { set_name(this_ring(), name); }

Watch watch_state() {
  const Ring& r = this_ring();
  Watch w;
  w.watched = r.watched.load(std::memory_order_relaxed);
  std::memcpy(w.name, r.name, sizeof w.name);  // only its owner writes it
  return w;
}

void set_watch(const Watch& w) {
  Ring& r = this_ring();
  set_name(r, w.name);
  if (w.watched && !r.watched.load(std::memory_order_relaxed)) {
    r.incident.store(0, std::memory_order_relaxed);
  }
  r.watched.store(w.watched, std::memory_order_release);
}

void for_each_watched(const std::function<void(const WatchedRing&)>& fn) {
  const int nr = std::min(g_nrings.load(std::memory_order_acquire),
                          kMaxRings);
  for (int i = 0; i < nr; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr || !r->in_use.load(std::memory_order_acquire) ||
        !r->watched.load(std::memory_order_acquire)) {
      continue;
    }
    WatchedRing w;
    w.tid = r->tid;
    {
      std::lock_guard<std::mutex> lock(r->mu);
      std::memcpy(w.name, r->name, sizeof w.name);
    }
    // Acquire: the event below seq is complete. The owner may lap the
    // ring meanwhile; the slot then holds a newer event, as good a beat.
    const std::uint64_t s = r->seq.load(std::memory_order_acquire);
    if (s > 0) {
      Event& e = r->ev[(s - 1) & kRingMask];
      w.last_ns = load_relaxed(e.t_ns);
      w.last_ev = flightfmt::ev_of(load_relaxed(e.w));
    }
    w.incident = &r->incident;
    fn(w);
  }
}

void set_dump_path(const char* path) {
  g_path_from_env_checked.store(true);  // explicit path beats the env
  if (path != nullptr && path[0] != '\0' && std::strlen(path) < kPathMax) {
    std::strncpy(g_path, path, kPathMax - 1);
    g_path[kPathMax - 1] = '\0';
  }
}

const char* dump_path() {
  init_path_from_env();
  return g_path;
}

bool dump(const char* path, std::int32_t reason) {
  return dump_impl(path, reason, /*with_metrics=*/true);
}

bool dump_default(std::int32_t reason) {
  return dump_impl(dump_path(), reason, /*with_metrics=*/true);
}

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  init_path_from_env();
  install_action(SIGSEGV, crash_handler, &g_old.segv);
  install_action(SIGBUS, crash_handler, &g_old.bus);
  install_action(SIGFPE, crash_handler, &g_old.fpe);
  install_action(SIGABRT, crash_handler, &g_old.abrt);
  if (::pipe2(g_usr1_pipe, O_CLOEXEC) == 0 &&
      ::fcntl(g_usr1_pipe[1], F_SETFL, O_NONBLOCK) == 0) {
    std::thread(usr1_dump_loop).detach();
    install_action(SIGUSR1, usr1_handler, nullptr);
  }
}

void install_job_signal_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  init_path_from_env();
  install_action(SIGINT, job_signal_handler, nullptr);
  install_action(SIGTERM, job_signal_handler, nullptr);
}

bool stop_requested() { return g_stop.load(std::memory_order_acquire); }
void request_stop() { g_stop.store(true, std::memory_order_release); }
void reset_stop() { g_stop.store(false, std::memory_order_release); }

int ring_count() { return g_nrings.load(std::memory_order_acquire); }

void clear() {
  const int nr = std::min(g_nrings.load(std::memory_order_acquire),
                          kMaxRings);
  for (int i = 0; i < nr; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      r->seq.store(0, std::memory_order_release);
    }
  }
}

}  // namespace flight
}  // namespace on
}  // namespace gep::obs

#endif  // GEP_OBS
