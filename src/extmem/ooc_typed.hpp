// Typed out-of-core I-GEP: the A/B/C/D recursion over tile-major disk
// pages, with base-case kernels running on PINNED frames.
//
// The generic engines run out-of-core through per-element get/set — fully
// general, but every element access pays accessor overhead. A production
// out-of-core implementation (what STXXL-based code does, and what the
// paper's out-of-core numbers imply) operates at block granularity: pin
// the X/U/V(/W) tiles of a base-case box in memory, run the raw-pointer
// kernel, release. Same recursion, same I/O pattern, near in-core compute
// speed.
//
// One driver per problem, on the dependency-driven runtime
// (parallel/task_graph.hpp). pool == nullptr runs the leaves on the
// calling thread in emission order — the sequential out-of-core I-GEP of
// Figs. 4/5, page for page. With a pool, acquire()'s pins make the cache
// safe for concurrent leaves and the graph's edges keep every tile's
// update order, so the parallel run is bit-identical to the sequential
// one. Prefetch comes from the scheduler's own lookahead: the ready
// frontier that feeds the workers also names the next `lookahead` tasks,
// and the driver's prefetch hook turns each into page hints for the
// cache's async worker (PageCache::enable_async_io). A task is hinted
// exactly when its dependencies have retired, so a hinted page is needed
// soon and never speculatively wrong.
//
// Sizing contract: the page cache must hold the concurrently pinned
// tiles plus headroom — at least 4 frames per in-flight leaf (X, U, V,
// W) times the worker count, plus `lookahead` unpinned working sets (4
// frames each), or acquire() throws under pressure (see docs/EXTMEM.md).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "extmem/checkpoint.hpp"
#include "extmem/ooc_matrix.hpp"
#include "parallel/task_graph.hpp"

namespace gep {

namespace detail {

template <class T>
void check_ooc_typed(const OocTiledMatrix<T>& m) {
  const index_t n = m.rows();
  if (m.cols() != n || !is_pow2(n)) {
    throw std::invalid_argument("ooc typed engine: square pow2 matrix only");
  }
  if (n % m.tile_side() != 0 || !is_pow2(m.tile_side())) {
    throw std::invalid_argument("ooc typed engine: tile side must divide n");
  }
}

// Suppresses duplicate prefetch hints within a sliding window of
// recently hinted tiles. Ready tasks near each other in the frontier
// share tiles (B-kind siblings share U; the k-column tiles recur in
// every task of a stage), so hinting each task's tiles as they come
// would repeat most of them. Unsuppressed, those duplicates flood the
// async worker's queue and can evict still-pinned pages it re-faults.
// The window (not a per-run set) is what makes re-hinting legal later:
// a tile evicted between stages ages out of the window and may be
// hinted again. Thread-safe — the prefetch hook runs on the workers.
class PrefetchDeduper {
 public:
  explicit PrefetchDeduper(std::size_t window = 64) : window_(window) {}

  // True if (mat, ti, tj) has not been hinted within the window; records
  // it. False counts into extmem.prefetch.hints_deduped.
  bool should_hint(int mat, index_t ti, index_t tj) {
    const std::uint64_t key = (static_cast<std::uint64_t>(mat) << 48) |
                              (static_cast<std::uint64_t>(ti) << 24) |
                              static_cast<std::uint64_t>(tj);
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_.count(key) != 0) {
      suppressed_.inc();
      return false;
    }
    seen_.insert(key);
    order_.push_back(key);
    if (order_.size() > window_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::size_t window_;
  std::mutex mu_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
  obs::Counter suppressed_ = obs::counter("extmem.prefetch.hints_deduped");
};

}  // namespace detail

struct OocDagOptions {
  // Ready tasks announced to the prefetcher ahead of execution; 0
  // disables prefetch.
  int lookahead = 4;
  bool prefetch = true;
  // Pivot guard for ooc_igep_lu_dag (gep/numeric_guard.hpp): every pivot
  // is admitted before division. Throw propagates NumericBreakdownError
  // out of run_task_graph; Boost floors pivots at the A-kind boxes that
  // create them — the floored value lands in the write-pinned diagonal
  // tile, so it persists to disk and every later reader sees it. Null =
  // unguarded (the paper's kernel).
  const PivotGuard* lu_guard = nullptr;
  // Checkpoint/restart coordinator (extmem/checkpoint.hpp). The driver
  // binds it to this job's task graph and hands it to the runtime, which
  // skips the tasks its frontier already covers (resume) and brackets
  // every executed leaf so snapshots cut at whole-leaf boundaries.
  CheckpointCoordinator* ckpt = nullptr;
};

namespace detail {

// The body every out-of-core driver shares: binds the checkpoint, wires
// the frontier's prefetch hook (hint(task, dedupe) announces a task's
// tiles) and runs leaf(task) on pinned tiles under the DAG runtime.
template <class Hint, class Leaf>
void run_ooc(DagProblem prob, index_t n, index_t bs, WorkStealingPool* pool,
             const OocDagOptions& opts, const Hint& hint, const Leaf& leaf) {
  const TaskGraph g = build_typed_task_graph(prob, n, bs);
  PrefetchDeduper dedupe;
  TaskRuntimeOptions ro;
  if (opts.ckpt != nullptr) {
    opts.ckpt->bind(prob, n, bs,
                    prob == DagProblem::LU && opts.lu_guard != nullptr,
                    g.size());
    ro.ckpt = opts.ckpt;
  }
  if (opts.prefetch && opts.lookahead > 0) {
    ro.lookahead = opts.lookahead;
    ro.prefetch = [&](const BlockTask& t) { hint(t, dedupe); };
  }
  run_task_graph(g, pool, [&](const BlockTask& t) {
    // Cooperative SIGINT/SIGTERM: unwind before pinning so the bench can
    // flush write-behind instead of dying mid-update.
    obs::throw_if_stop_requested();
    leaf(t);
  }, ro);
}

}  // namespace detail

// Out-of-core Floyd-Warshall at block granularity (base = tile side).
template <class T>
void ooc_igep_floyd_warshall_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                                 OocDagOptions opts = {}) {
  detail::check_ooc_typed(m);
  obs::WatchdogThreadSource wd_src("ooc-fw-dag");
  const index_t bs = m.tile_side();
  detail::run_ooc(
      DagProblem::FloydWarshall, m.rows(), bs, pool, opts,
      [&m, bs](const BlockTask& t, detail::PrefetchDeduper& dedupe) {
        const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
        if (dedupe.should_hint(0, bi, bj)) m.prefetch_tile(bi, bj);
        if (dedupe.should_hint(0, bi, bk)) m.prefetch_tile(bi, bk);
        if (dedupe.should_hint(0, bk, bj)) m.prefetch_tile(bk, bj);
      },
      [&m, bs](const BlockTask& t) {
        auto x = m.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
        auto u = m.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
        auto v = m.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
        kernel_fw(x.ptr, u.ptr, v.ptr, t.m, bs, bs, bs);
      });
}

// Out-of-core LU decomposition without pivoting at block granularity.
template <class T>
void ooc_igep_lu_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                     OocDagOptions opts = {}) {
  detail::check_ooc_typed(m);
  obs::WatchdogThreadSource wd_src("ooc-lu-dag");
  const index_t bs = m.tile_side();
  const PivotGuard* guard = opts.lu_guard;
  detail::run_ooc(
      DagProblem::LU, m.rows(), bs, pool, opts,
      [&m, bs](const BlockTask& t, detail::PrefetchDeduper& dedupe) {
        const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
        if (dedupe.should_hint(0, bi, bj)) m.prefetch_tile(bi, bj);
        if (dedupe.should_hint(0, bi, bk)) m.prefetch_tile(bi, bk);
        if (dedupe.should_hint(0, bk, bj)) m.prefetch_tile(bk, bj);
        if (dedupe.should_hint(0, bk, bk)) m.prefetch_tile(bk, bk);
      },
      [&m, bs, guard](const BlockTask& t) {
        auto x = m.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
        auto u = m.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
        auto v = m.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
        auto w = m.pin_tile(t.k0 / bs, t.k0 / bs, /*for_write=*/false);
        const bool di = detail::diag_i(t.kind), dj = detail::diag_j(t.kind);
        if (guard != nullptr) {
          kernel_lu_guarded(x.ptr, u.ptr, v.ptr, w.ptr, t.m, bs, bs, bs, bs,
                            di, dj, *guard, t.k0);
        } else {
          kernel_lu(x.ptr, u.ptr, v.ptr, w.ptr, t.m, bs, bs, bs, bs, di, dj);
        }
      });
}

// Out-of-core matrix multiplication C += A·B at block granularity.
template <class T>
void ooc_igep_matmul_dag(OocTiledMatrix<T>& c, OocTiledMatrix<T>& a,
                         OocTiledMatrix<T>& b, WorkStealingPool* pool,
                         OocDagOptions opts = {}) {
  detail::check_ooc_typed(c);
  detail::check_ooc_typed(a);
  detail::check_ooc_typed(b);
  const index_t n = c.rows();
  const index_t bs = c.tile_side();
  if (a.rows() != n || b.rows() != n || a.tile_side() != bs ||
      b.tile_side() != bs) {
    throw std::invalid_argument("ooc matmul: shapes/tiles must match");
  }
  obs::WatchdogThreadSource wd_src("ooc-mm-dag");
  detail::run_ooc(
      DagProblem::MatMul, n, bs, pool, opts,
      [&c, &a, &b, bs](const BlockTask& t, detail::PrefetchDeduper& dedupe) {
        const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
        if (dedupe.should_hint(0, bi, bj)) c.prefetch_tile(bi, bj);
        if (dedupe.should_hint(1, bi, bk)) a.prefetch_tile(bi, bk);
        if (dedupe.should_hint(2, bk, bj)) b.prefetch_tile(bk, bj);
      },
      [&c, &a, &b, bs](const BlockTask& t) {
        auto x = c.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
        auto u = a.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
        auto v = b.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
        kernel_mm(x.ptr, u.ptr, v.ptr, t.m, bs, bs, bs);
      });
}

}  // namespace gep
