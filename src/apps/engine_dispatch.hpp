// Internal: the one engine dispatcher behind the app entry points. Not
// installed API.
//
// An app states its problem — the typed I-GEP driver and its operand
// matrices, and for the in-place GEP form the update functor and the
// update set Σ — and runs its own Iterative and Blocked baselines. The
// GEP engines are run here:
//   IGep        — the driver over RowMajorStores of the operands, in place;
//   IGepZ       — the operands converted to ZBlocked buffers (conversion
//                 included, as the paper includes it in its timings), the
//                 driver over their ZStores, the written ones stored back;
//   CGep,
//   CGepCompact — f over Σ = S{n}, in place.
// No engine pads: every recursion prunes the boxes past n and clips its
// edge leaves to n (gep/typed.hpp, gep/cgep.hpp), and ZBlocked covers
// the typed recursion's tile grid.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>

#include "apps/apps.hpp"
#include "gep/cgep.hpp"
#include "layout/zblocked.hpp"
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

// Runs fn(pool, typed_options) with a work-stealing pool of
// workers(opts) threads, or with no pool (sequential) when that is one.
template <class Fn>
void with_pool(const RunOptions& opts, Fn&& fn) {
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

// The element type of an operand: const for a read-only one.
template <class M>
using elem_t = std::remove_reference_t<decltype(*std::declval<M&>().data())>;

// Converts each operand to a ZBlocked buffer of bs-wide tiles, calls
// fn(their ZStores...) and stores the written (non-const) operands back.
template <class Fn>
void with_z_stores(index_t, Fn&& fn) {
  fn();
}

template <class Fn, class M, class... Ms>
void with_z_stores(index_t bs, Fn&& fn, M& m, Ms&... ms) {
  using T = std::remove_const_t<elem_t<M>>;
  ZBlocked<T> z(m.rows(), bs);
  z.load(m);
  with_z_stores(
      bs, [&](const auto&... st) { fn(ZStore<T>{&z}, st...); }, ms...);
  if constexpr (!std::is_const_v<M>) z.store(m);
}

// Runs an igep_* driver (parallel/task_graph.hpp) under IGep or IGepZ:
// drive(pool, stores..., n, typed_options), one store per operand in
// the order given. Operands are n x n; the const ones are only read.
template <class Drive, class... M>
void run_typed(Engine e, const RunOptions& opts, const Drive& drive,
               M&... ops) {
  const index_t n = std::get<0>(std::tie(ops...)).rows();
  const index_t bs = leaf_side(opts.base_size, n);
  auto run = [&](const auto&... st) {
    with_pool(opts, [&](WorkStealingPool* pool, TypedOptions t) {
      drive(pool, st..., n, t);
    });
  };
  if (e == Engine::IGepZ) {
    with_z_stores(bs, run, ops...);
  } else {
    run(RowMajorStore<elem_t<M>>{ops.data(), n, bs}...);
  }
}

// Every GEP engine of an in-place app: c[i,j] = f(c[i,j], c[i,k], c[k,j],
// c[k,k]) over Σ = S{n}, whose typed driver `drive` runs IGep and IGepZ.
template <class S, class T, class F, class Drive>
void run_gep(const char* app, Engine e, const RunOptions& opts, Matrix<T>& a,
             const F& f, const Drive& drive) {
  if (e == Engine::IGep || e == Engine::IGepZ) {
    run_typed(e, opts, drive, a);
  } else if (e == Engine::CGep) {
    run_cgep(a, f, S{a.rows()}, {opts.base_size});
  } else if (e == Engine::CGepCompact) {
    run_cgep_compact(a, f, S{a.rows()}, {opts.base_size});
  } else {
    throw std::invalid_argument(std::string(app) + ": unknown engine");
  }
}

}  // namespace gep::apps::detail
