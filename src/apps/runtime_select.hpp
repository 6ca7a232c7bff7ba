// Internal: owns the pool for the IGep/IGepZ paths of the app entry
// points. Not installed API.
#pragma once

#include <algorithm>
#include <thread>

#include "apps/apps.hpp"
#include "obs/stat_server.hpp"
#include "parallel/task_graph.hpp"

namespace gep::apps::detail {

// Worker count: opts.threads, and for the DAG schedule clamped to the
// host's concurrency. A dependency-driven runtime keeps every worker
// busy (no join barriers parking threads), so running more workers than
// cores only interleaves their working sets in the shared cache and adds
// context-switch thrash. Compute tasks never block, so there is no
// latency to hide. The fork-join schedule keeps the requested count, as
// Fig. 6 runs it.
inline int workers(const RunOptions& opts) {
  if (opts.runtime == Runtime::ForkJoin) return opts.threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(opts.threads, static_cast<int>(hw));
}

// Runs one typed I-GEP solve: fn(pool, typed_options) with a work-
// stealing pool of workers(opts) threads, or with no pool (sequential)
// when that is one.
template <class Fn>
void run_igep(const RunOptions& opts, Fn&& fn) {
  // Typed solves are long-running entry points: arm the embedded stat
  // server when $GEP_STAT_PORT asks for it (no-op otherwise or when a
  // bench banner already started it; inert stub at GEP_OBS=0).
  obs::StatServer::start_from_env();
  const TypedOptions to{opts.base_size, opts.runtime};
  const int n = workers(opts);
  if (n > 1) {
    WorkStealingPool pool(n);
    fn(&pool, to);
  } else {
    fn(static_cast<WorkStealingPool*>(nullptr), to);
  }
}

}  // namespace gep::apps::detail
