// Internal: resolves RunOptions::runtime and owns the pool for the
// DAG-runtime paths of the app entry points. Not installed API.
#pragma once

#include <algorithm>
#include <thread>

#include "apps/apps.hpp"
#include "obs/stat_server.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace gep::apps::detail {

inline bool use_dag(const RunOptions& opts) {
  switch (opts.runtime) {
    case Runtime::ForkJoin: return false;
    case Runtime::Dag: return true;
    case Runtime::Auto: break;
  }
  return runtime_from_env() == RuntimeKind::Dag;
}

// Worker count for the DAG runtime: the request clamped to the host's
// concurrency. A dependency-driven runtime keeps every worker busy (no
// join barriers parking threads), so running more workers than cores
// only interleaves their working sets in the shared cache and adds
// context-switch thrash — unlike fork-join, oversubscription can never
// help it. Compute tasks never block, so there is no latency to hide.
inline int dag_workers(const RunOptions& opts) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(opts.threads, static_cast<int>(hw));
}

// Runs fn(pool) with a work-stealing pool sized by dag_workers(), or
// fn(nullptr) for the single-threaded case (run_task_graph then
// executes in emission order on the calling thread).
template <class Fn>
void with_dag_pool(const RunOptions& opts, Fn&& fn) {
  // DAG-runtime drivers are long-running entry points: arm the embedded
  // stat server when $GEP_STAT_PORT asks for it (no-op otherwise or when
  // a bench banner already started it; inert stub at GEP_OBS=0).
  obs::StatServer::start_from_env();
  const int workers = dag_workers(opts);
  if (workers > 1) {
    WorkStealingPool pool(workers);
    fn(&pool);
  } else {
    fn(static_cast<WorkStealingPool*>(nullptr));
  }
}

// Runs one typed I-GEP solve under the selected runtime: dag(pool) on
// the DAG runtime, else fork_join(inv) with the Fig. 6 invoker over a
// ThreadPool at opts.threads > 1, or the sequential one.
template <class Dag, class ForkJoin>
void run_igep(const RunOptions& opts, Dag&& dag, ForkJoin&& fork_join) {
  if (use_dag(opts)) {
    with_dag_pool(opts, dag);
  } else if (opts.threads > 1) {
    ThreadPool pool(opts.threads);
    ParInvoker inv{&pool};
    fork_join(inv);
  } else {
    SeqInvoker inv;
    fork_join(inv);
  }
}

}  // namespace gep::apps::detail
