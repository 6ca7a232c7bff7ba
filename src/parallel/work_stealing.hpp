// Work-stealing fork-join pool — the Cilk-style scheduler whose caching
// behaviour Lemma 3.1(a) analyzes.
//
// Each worker owns a deque: it pushes and pops forked tasks at the back
// (LIFO, preserving the sequential order's locality — the property the
// lemma's bound rests on) and steals from the FRONT of a random victim
// when empty (stealing the oldest, largest-granularity work). It is the
// one pool: WsParInvoker runs the typed recursion's fork-join stages on
// it (Fig. 6), and the task-graph runtime submits its ready tasks to it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/prng.hpp"

namespace gep {

class WsTaskGroup;

// Aggregated view of one worker's activity (worker 0 is the external /
// calling thread's deque). idle_seconds is time spent parked in the
// sleep condition variable, not time spinning in wait().
struct WsWorkerStats {
  long steals = 0;
  long executed = 0;
  long idle_wakes = 0;
  double idle_seconds = 0.0;
};

class WorkStealingPool {
 public:
  explicit WorkStealingPool(int threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int threads() const { return threads_; }

  // Total successful steals (for the scheduler-behaviour tests; the
  // work-stealing bound charges cache misses to steals).
  long steal_count() const;

  // Tasks executed across all workers, and the per-worker breakdown.
  long executed_count() const;
  WsWorkerStats worker_stats(int worker) const;

 private:
  friend class WsTaskGroup;
  struct Task {
    std::function<void()> fn;
    WsTaskGroup* group;
  };
  // Per-worker counters ride in the worker's own Deque allocation; each
  // field is bumped only by its owner (relaxed), read by aggregators.
  struct Deque {
    std::deque<Task> q;
    std::mutex mu;
    alignas(64) std::atomic<long> steals{0};
    std::atomic<long> executed{0};
    std::atomic<long> idle_wakes{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  // Pushes to the calling worker's deque (or deque 0 from outside).
  void push(Task t);
  // Pops own back, else steals a victim's front. False when all empty.
  bool try_run_one();
  void worker_loop(int id);
  int self_id() const;

  int threads_;
  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  // Workers currently parked (or about to park) in sleep_cv_. Publishers
  // take sleep_mu_ only when this is non-zero, closing the lost-wakeup
  // window (predicate evaluated, not yet blocked) without a lock on the
  // fast path. Both counters use seq_cst so a parking worker's increment
  // is visible to any push that its predicate check missed.
  std::atomic<int> sleepers_{0};
  std::atomic<long> pending_tasks_{0};
  std::atomic<bool> stop_{false};
};

// Fork-join scope on a WorkStealingPool; wait() helps by running tasks.
// A task that throws does not kill its worker: the first exception is
// captured and rethrown from wait(). The destructor still drains the
// scope but must swallow any unclaimed exception (destructors cannot
// throw) — call wait() explicitly when task failures matter.
class WsTaskGroup {
 public:
  explicit WsTaskGroup(WorkStealingPool* pool) : pool_(pool) {}
  ~WsTaskGroup() { drain(); }

  void run(std::function<void()> fn);
  void wait();

 private:
  friend class WorkStealingPool;
  void drain();  // blocks until pending_ == 0, never throws
  void record_exception(std::exception_ptr e);

  WorkStealingPool* pool_;
  std::atomic<long> pending_{0};
  std::mutex eptr_mu_;
  std::exception_ptr eptr_;
};

// Invoker over a work-stealing pool (typed I-GEP engine concept,
// gep/typed.hpp): each stage's calls fork onto the pool and join; a
// one-call stage runs inline, with no task group. Every node it runs
// holds an obs::NodeScope.
struct WsParInvoker {
  WorkStealingPool* pool = nullptr;
  using Scope = obs::NodeScope;

  template <class... Fs>
  void invoke(Fs&&... fs) {
    if (sizeof...(Fs) == 1 || pool == nullptr || pool->threads() <= 1) {
      (static_cast<Fs&&>(fs)(), ...);
      return;
    }
    WsTaskGroup g(pool);
    fork_all_but_last(g, static_cast<Fs&&>(fs)...);
    g.wait();
  }

 private:
  template <class F>
  void fork_all_but_last(WsTaskGroup&, F&& last) {
    static_cast<F&&>(last)();
  }
  template <class F, class... Rest>
  void fork_all_but_last(WsTaskGroup& g, F&& first, Rest&&... rest) {
    g.run(std::function<void()>(static_cast<F&&>(first)));
    fork_all_but_last(g, static_cast<Rest&&>(rest)...);
  }
};

}  // namespace gep
