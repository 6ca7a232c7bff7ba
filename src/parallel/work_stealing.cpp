#include "parallel/work_stealing.hpp"

#include <cstdio>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/watchdog.hpp"

namespace gep {
namespace {

// Which worker of which pool the current thread is (set by worker_loop).
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local int tls_id = -1;

// Pool-wide mirrors in the global metrics registry (no-ops at GEP_OBS=0).
obs::Counter& obs_steals() {
  static obs::Counter c = obs::counter("parallel.ws.steals");
  return c;
}
obs::Counter& obs_executed() {
  static obs::Counter c = obs::counter("parallel.ws.executed");
  return c;
}
obs::Counter& obs_idle_wakes() {
  static obs::Counter c = obs::counter("parallel.ws.idle_wakes");
  return c;
}
// Level gauge of currently unparked workers across every live pool
// (scraped by the stat server; a fully parked pool reads 0).
obs::Gauge& obs_active_workers() {
  static obs::Gauge g = obs::gauge("parallel.ws.active_workers");
  return g;
}

}  // namespace

long WorkStealingPool::steal_count() const {
  long n = 0;
  for (const auto& d : deques_) n += d->steals.load(std::memory_order_relaxed);
  return n;
}

long WorkStealingPool::executed_count() const {
  long n = 0;
  for (const auto& d : deques_)
    n += d->executed.load(std::memory_order_relaxed);
  return n;
}

WsWorkerStats WorkStealingPool::worker_stats(int worker) const {
  const Deque& d = *deques_[static_cast<std::size_t>(worker)];
  WsWorkerStats s;
  s.steals = d.steals.load(std::memory_order_relaxed);
  s.executed = d.executed.load(std::memory_order_relaxed);
  s.idle_wakes = d.idle_wakes.load(std::memory_order_relaxed);
  s.idle_seconds =
      static_cast<double>(d.idle_ns.load(std::memory_order_relaxed)) / 1e9;
  return s;
}

WorkStealingPool::WorkStealingPool(int threads)
    : threads_(threads < 1 ? 1 : threads) {
  // Register the pool metrics up front so registry snapshots always show
  // them (a single-threaded run legitimately reports steals == 0).
  obs_steals();
  obs_executed();
  obs_idle_wakes();
  for (int d = 0; d < threads_; ++d) {
    deques_.push_back(std::make_unique<Deque>());
  }
  for (int t = 0; t + 1 < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t + 1); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    // Publish under the sleep mutex so a worker between its predicate
    // check and blocking cannot miss the shutdown notification: the
    // worker evaluates the wait predicate holding sleep_mu_, so it
    // either sees stop_ already true (returns without blocking) or
    // blocks before this store runs — and then notify_all reaches it.
    // Without the lock here, a store landing in that predicate-to-block
    // window would be a classically lost final wake (the 1ms wait_for
    // timeout would mask it as slow shutdown, not a hang — which is why
    // the construct/destroy stress test also checks teardown LATENCY
    // indirectly by iterating many pools).
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int WorkStealingPool::self_id() const {
  return (tls_pool == this) ? tls_id : 0;  // external threads use deque 0
}

void WorkStealingPool::push(Task t) {
  // Count the task BEFORE it becomes stealable. With the increment after
  // the deque insert, a parked worker's wait predicate could run in the
  // window between them, read pending == 0 with the task already queued,
  // and sleep its full timeout — a once-per-push 1ms stall that the DAG
  // runtime's submit-on-release path hits far more often than fork-join
  // did. A transient pending > 0 with the deque still empty is harmless:
  // try_run_one simply finds nothing and the waiter rechecks.
  pending_tasks_.fetch_add(1);  // seq_cst: ordered against sleepers_ below
  Deque& d = *deques_[static_cast<std::size_t>(self_id())];
  {
    std::lock_guard<std::mutex> lock(d.mu);
    d.q.push_back(std::move(t));
  }
  if (sleepers_.load() > 0) {
    // A worker may have evaluated the wait predicate (pending == 0) but
    // not yet blocked; notifying in that window is lost and the worker
    // sleeps its full timeout. Acquiring the sleep mutex serializes the
    // publish with the predicate-to-block transition, so the notify
    // below always reaches a parked (or about-to-recheck) worker.
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    sleep_cv_.notify_one();
  }
}

bool WorkStealingPool::try_run_one() {
  const int me = self_id();
  Task task;
  bool got = false;
  // 1. Own deque, back (LIFO: sequential-order locality).
  {
    Deque& d = *deques_[static_cast<std::size_t>(me)];
    std::lock_guard<std::mutex> lock(d.mu);
    if (!d.q.empty()) {
      task = std::move(d.q.back());
      d.q.pop_back();
      got = true;
    }
  }
  // 2. Steal from a random victim's front (oldest = biggest subtree).
  if (!got) {
    static thread_local SplitMix64 rng(
        0x9e3779b97f4a7c15ULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    const int start = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(threads_)));
    for (int off = 0; off < threads_ && !got; ++off) {
      const int victim = (start + off) % threads_;
      if (victim == me) continue;
      Deque& d = *deques_[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        task = std::move(d.q.front());
        d.q.pop_front();
        got = true;
        // Charged to the THIEF: steals are the unit Lemma 3.1's cache-
        // miss bound counts, and the thief is the worker whose working
        // set changes.
        deques_[static_cast<std::size_t>(me)]->steals.fetch_add(
            1, std::memory_order_relaxed);
        obs_steals().inc();
        obs::flight::record(obs::flightfmt::kTaskSteal,
                            obs::flightfmt::pack_steal(me, victim));
      }
    }
  }
  if (!got) return false;
  pending_tasks_.fetch_sub(1, std::memory_order_acq_rel);
  deques_[static_cast<std::size_t>(me)]->executed.fetch_add(
      1, std::memory_order_relaxed);
  obs_executed().inc();
  // A throwing task must still decrement pending_ (or every later wait()
  // hangs) and must not unwind through the worker loop (std::terminate).
  // Record the exception first: the group is guaranteed alive until its
  // pending_ count reaches zero.
  try {
    task.fn();
  } catch (...) {
    task.group->record_exception(std::current_exception());
  }
  task.group->pending_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void WorkStealingPool::worker_loop(int id) {
  tls_pool = this;
  tls_id = id;
  char name[24];
  std::snprintf(name, sizeof name, "ws-worker-%d", id);
  const obs::WatchdogThreadSource watch(name);
  obs_active_workers().add(1.0);  // starts active; park/wake adjust below
  // Park/wake events only on transitions (an idle worker wakes every
  // millisecond; recording each wake would flood its ring). A ring that
  // ends in task_park is idle to the stall watchdog. A parked worker's
  // next task is always a steal (its own deque stays empty while it
  // sleeps), so the steal's event ends that idle state before the task
  // runs, and the task's own events keep the heartbeat going.
  bool parked = false;
  Deque& mine = *deques_[static_cast<std::size_t>(id)];
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one()) {
      if (parked) {
        parked = false;
        obs::flight::record(obs::flightfmt::kTaskWake,
                            static_cast<std::uint64_t>(id));
        obs_active_workers().add(1.0);
      }
    } else {
      if (!parked) {
        parked = true;
        obs::flight::record(obs::flightfmt::kTaskPark,
                            static_cast<std::uint64_t>(id));
        obs_active_workers().add(-1.0);
      }
      const auto park_start = std::chrono::steady_clock::now();
      {
        std::unique_lock<std::mutex> lock(sleep_mu_);
        sleepers_.fetch_add(1);  // seq_cst: visible to push()'s check
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
          return stop_.load(std::memory_order_acquire) ||
                 pending_tasks_.load(std::memory_order_acquire) > 0;
        });
        sleepers_.fetch_sub(1);
      }
      mine.idle_wakes.fetch_add(1, std::memory_order_relaxed);
      mine.idle_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - park_start)
                  .count()),
          std::memory_order_relaxed);
      obs_idle_wakes().inc();
    }
  }
  if (!parked) obs_active_workers().add(-1.0);  // parked already subtracted
  tls_pool = nullptr;
  tls_id = -1;
}

void WsTaskGroup::run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->threads() <= 1) {
    fn();  // inline: exceptions propagate directly to the caller
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_->push(WorkStealingPool::Task{std::move(fn), this});
}

void WsTaskGroup::record_exception(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(eptr_mu_);
  if (!eptr_) eptr_ = std::move(e);  // keep the first failure
}

void WsTaskGroup::drain() {
  if (pool_ == nullptr) return;
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (!pool_->try_run_one()) std::this_thread::yield();
  }
}

void WsTaskGroup::wait() {
  drain();
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(eptr_mu_);
    e = std::exchange(eptr_, nullptr);
  }
  if (e) std::rethrow_exception(e);
}

}  // namespace gep
