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
// The engines are generic over the Invoker concept (gep/typed.hpp), so
// the same code runs sequentially (SeqInvoker) or as the multithreaded
// I-GEP of Fig. 6 on a work-stealing pool — acquire()'s pins make the
// cache safe for concurrent leaves, and invoke() barriers keep each
// stage's X tiles disjoint, so the parallel run is bit-identical to the
// sequential one. With OocTypedOptions::prefetch the recursion issues
// hints for the next stage's first-leaf tiles one stage ahead, which the
// cache's async worker (PageCache::enable_async_io) turns into
// overlapped fault-ins.
//
// Sizing contract: the page cache must hold the concurrently pinned
// tiles plus headroom — at least 4 frames per in-flight leaf (X, U, V,
// W) times the worker count, or acquire() throws under pressure (see
// docs/EXTMEM.md).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "extmem/checkpoint.hpp"
#include "extmem/ooc_matrix.hpp"
#include "gep/typed.hpp"
#include "parallel/task_graph.hpp"
#include "simd/strassen.hpp"

namespace gep {

struct OocTypedOptions {
  // Issue prefetch hints from the recursion. Only useful with the
  // cache's async worker running; harmless (counted as dropped) without.
  bool prefetch = false;
  // Pivot guard for ooc_igep_lu (gep/numeric_guard.hpp): every pivot is
  // admitted before division. Throw propagates NumericBreakdownError
  // through the invoker (WsTaskGroup rethrows from wait()); Boost floors
  // pivots at the A-kind boxes that create them — the floored value
  // lands in the write-pinned diagonal tile, so it persists to disk and
  // every later reader sees it. Null = unguarded (the paper's kernel).
  const PivotGuard* lu_guard = nullptr;
  // Checkpoint/restart coordinator (extmem/checkpoint.hpp). The driver
  // binds it to this job's task graph at entry; leaves the coordinator's
  // frontier already covers are skipped (resume), and every executed
  // leaf is bracketed so snapshots cut at whole-leaf boundaries.
  CheckpointCoordinator* ckpt = nullptr;
  // Leaf-GEMM tuning (simd/strassen.hpp): OOC tiles are large (whole
  // leaves of the tile size), so D-kind leaves clear the Strassen
  // crossover whenever the tile edge does. Installed process-wide for
  // the run's duration; defaults inherit the env knobs.
  simd::GemmOptions gemm{};
};

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
// recently hinted tiles. The recursion's hint hook fires per subtree
// corner, and sibling corners of one stage share tiles (B-kind siblings
// share U, the k-column tiles recur in every corner); worse, a 2bs-wide
// corner and the bs-wide corners inside it hint the SAME tiles one
// level apart. Unsuppressed, those duplicates flood the async worker's
// queue and can evict still-pinned pages it re-faults. The window (not
// a per-run set) is what makes re-hinting legal later: a tile evicted
// between stages ages out of the window and may be hinted again.
// Thread-safe — the parallel invoker runs the hint hook from workers.
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

// Brackets one fork-join leaf under an optional checkpoint coordinator:
// leaves the resumed frontier already covers are skipped outright, and
// the enter/exit pair lets a pending snapshot quiesce at a whole-leaf
// boundary. A JobCancelled unwind before the body touched its blocks is
// a clean cancel; any other exception means a half-applied leaf, which
// poisons further snapshots (leaf_abort).
template <class Body>
inline void ckpt_leaf(CheckpointCoordinator* ck, index_t i0, index_t j0,
                      index_t k0, Body&& body) {
  if (ck == nullptr) {
    body();
    return;
  }
  const int id = ck->task_id(i0, j0, k0);
  if (ck->is_done(id)) return;
  ck->leaf_enter();
  try {
    body();
  } catch (const obs::JobCancelled&) {
    ck->leaf_cancel();
    throw;
  } catch (...) {
    ck->leaf_abort();
    throw;
  }
  ck->leaf_exit(id);
}

}  // namespace detail

// Out-of-core Floyd-Warshall at block granularity (base = tile side).
template <class T, class Inv>
void ooc_igep_floyd_warshall(OocTiledMatrix<T>& m, Inv& inv,
                             OocTypedOptions opts = {}) {
  detail::check_ooc_typed(m);
  const index_t n = m.rows();
  const index_t bs = m.tile_side();
  CheckpointCoordinator* ck = opts.ckpt;
  if (ck != nullptr) ck->bind(DagProblem::FloydWarshall, n, bs, false);
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d, BoxKind) {
    // Cooperative SIGINT/SIGTERM: unwind before pinning so the bench can
    // flush write-behind instead of dying mid-update.
    obs::throw_if_stop_requested();
    detail::ckpt_leaf(ck, i0, j0, k0, [&] {
      auto x = m.pin_tile(i0 / bs, j0 / bs, /*for_write=*/true);
      auto u = m.pin_tile(i0 / bs, k0 / bs, /*for_write=*/false);
      auto v = m.pin_tile(k0 / bs, j0 / bs, /*for_write=*/false);
      kernel_fw(x.ptr, u.ptr, v.ptr, d.m, bs, bs, bs);
    });
  };
  auto prune = [](index_t, index_t, index_t, index_t) { return false; };
  if (opts.prefetch) {
    // (i0,j0,k0) is a subtree corner: its first leaf reads exactly these
    // tiles. Hint only near the bottom (subtree ≤ 2 base boxes wide) —
    // higher corners are too far in the future to hold in the cache.
    // Sibling corners share tiles; the deduper swallows the repeats.
    detail::PrefetchDeduper dedupe;
    auto hint = [&](index_t i0, index_t j0, index_t k0, index_t mm) {
      if (mm > 2 * bs) return;
      if (dedupe.should_hint(0, i0 / bs, j0 / bs))
        m.prefetch_tile(i0 / bs, j0 / bs);
      if (dedupe.should_hint(0, i0 / bs, k0 / bs))
        m.prefetch_tile(i0 / bs, k0 / bs);
      if (dedupe.should_hint(0, k0 / bs, j0 / bs))
        m.prefetch_tile(k0 / bs, j0 / bs);
    };
    detail::typed_rec(inv, n, 0, 0, 0, n, bs, leaf, prune, hint);
  } else {
    detail::typed_rec(inv, n, 0, 0, 0, n, bs, leaf, prune);
  }
}

// Out-of-core LU decomposition without pivoting at block granularity.
template <class T, class Inv>
void ooc_igep_lu(OocTiledMatrix<T>& m, Inv& inv, OocTypedOptions opts = {}) {
  detail::check_ooc_typed(m);
  simd::ScopedGemmOptions gemm_scope(opts.gemm);
  const index_t n = m.rows();
  const index_t bs = m.tile_side();
  CheckpointCoordinator* ck = opts.ckpt;
  if (ck != nullptr) {
    ck->bind(DagProblem::LU, n, bs, opts.lu_guard != nullptr);
  }
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                  BoxKind kind) {
    obs::throw_if_stop_requested();
    detail::ckpt_leaf(ck, i0, j0, k0, [&] {
      auto x = m.pin_tile(i0 / bs, j0 / bs, /*for_write=*/true);
      auto u = m.pin_tile(i0 / bs, k0 / bs, /*for_write=*/false);
      auto v = m.pin_tile(k0 / bs, j0 / bs, /*for_write=*/false);
      auto w = m.pin_tile(k0 / bs, k0 / bs, /*for_write=*/false);
      const bool di = (kind == BoxKind::A || kind == BoxKind::B);
      const bool dj = (kind == BoxKind::A || kind == BoxKind::C);
      if (opts.lu_guard != nullptr) {
        kernel_lu_guarded(x.ptr, u.ptr, v.ptr, w.ptr, d.m, bs, bs, bs, bs, di,
                          dj, *opts.lu_guard, k0);
      } else {
        kernel_lu(x.ptr, u.ptr, v.ptr, w.ptr, d.m, bs, bs, bs, bs, di, dj);
      }
    });
  };
  auto prune = [](index_t i0, index_t j0, index_t k0, index_t) {
    return i0 < k0 || j0 < k0;
  };
  if (opts.prefetch) {
    detail::PrefetchDeduper dedupe;
    auto hint = [&](index_t i0, index_t j0, index_t k0, index_t mm) {
      if (mm > 2 * bs) return;
      if (dedupe.should_hint(0, i0 / bs, j0 / bs))
        m.prefetch_tile(i0 / bs, j0 / bs);
      if (dedupe.should_hint(0, i0 / bs, k0 / bs))
        m.prefetch_tile(i0 / bs, k0 / bs);
      if (dedupe.should_hint(0, k0 / bs, j0 / bs))
        m.prefetch_tile(k0 / bs, j0 / bs);
      if (dedupe.should_hint(0, k0 / bs, k0 / bs))
        m.prefetch_tile(k0 / bs, k0 / bs);
    };
    detail::typed_rec(inv, n, 0, 0, 0, n, bs, leaf, prune, hint);
  } else {
    detail::typed_rec(inv, n, 0, 0, 0, n, bs, leaf, prune);
  }
}

// Out-of-core matrix multiplication C += A·B at block granularity.
template <class T, class Inv>
void ooc_igep_matmul(OocTiledMatrix<T>& c, OocTiledMatrix<T>& a,
                     OocTiledMatrix<T>& b, Inv& inv,
                     OocTypedOptions opts = {}) {
  detail::check_ooc_typed(c);
  detail::check_ooc_typed(a);
  detail::check_ooc_typed(b);
  simd::ScopedGemmOptions gemm_scope(opts.gemm);
  const index_t n = c.rows();
  const index_t bs = c.tile_side();
  if (a.rows() != n || b.rows() != n || a.tile_side() != bs ||
      b.tile_side() != bs) {
    throw std::invalid_argument("ooc matmul: shapes/tiles must match");
  }
  CheckpointCoordinator* ck = opts.ckpt;
  if (ck != nullptr) ck->bind(DagProblem::MatMul, n, bs, false);
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d) {
    obs::throw_if_stop_requested();
    detail::ckpt_leaf(ck, i0, j0, k0, [&] {
      auto x = c.pin_tile(i0 / bs, j0 / bs, /*for_write=*/true);
      auto u = a.pin_tile(i0 / bs, k0 / bs, /*for_write=*/false);
      auto v = b.pin_tile(k0 / bs, j0 / bs, /*for_write=*/false);
      kernel_mm(x.ptr, u.ptr, v.ptr, d.m, bs, bs, bs);
    });
  };
  if (opts.prefetch) {
    detail::PrefetchDeduper dedupe;
    auto hint = [&](index_t i0, index_t j0, index_t k0, index_t mm) {
      if (mm > 2 * bs) return;
      if (dedupe.should_hint(0, i0 / bs, j0 / bs))
        c.prefetch_tile(i0 / bs, j0 / bs);
      if (dedupe.should_hint(1, i0 / bs, k0 / bs))
        a.prefetch_tile(i0 / bs, k0 / bs);
      if (dedupe.should_hint(2, k0 / bs, j0 / bs))
        b.prefetch_tile(k0 / bs, j0 / bs);
    };
    detail::mm_rec(inv, n, 0, 0, 0, n, bs, leaf, hint);
  } else {
    detail::mm_rec(inv, n, 0, 0, 0, n, bs, leaf);
  }
}

// --- DAG-runtime drivers ---------------------------------------------------
// The dependency-driven runtime (parallel/task_graph.hpp) replaces the
// recursion's bolted-on one-stage-ahead hints with the scheduler's own
// lookahead: the ready frontier that feeds workers also names the next
// `lookahead` tasks, and this driver's prefetch hook turns each of them
// into page hints for the async I/O worker. One scheduler state drives
// both compute and I/O — a task is hinted exactly when its dependencies
// have retired, so a hinted page is needed soon and never speculatively
// wrong. Sizing contract is the fork-join drivers' plus `lookahead`
// unpinned working sets of headroom (4 frames each).

struct OocDagOptions {
  // Ready tasks announced to the prefetcher ahead of execution; 0
  // disables prefetch. Overridable per process via $GEP_DAG_LOOKAHEAD.
  int lookahead = 4;
  bool prefetch = true;
  // Same pivot-guard contract as OocTypedOptions::lu_guard.
  const PivotGuard* lu_guard = nullptr;
  // Same checkpoint contract as OocTypedOptions::ckpt: the driver binds
  // it and hands it to the DAG runtime, which skips retired tasks when
  // seeding (resume) and brackets every leaf for quiesce.
  CheckpointCoordinator* ckpt = nullptr;
};

template <class T>
void ooc_igep_floyd_warshall_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                                 OocDagOptions opts = {}) {
  detail::check_ooc_typed(m);
  obs::WatchdogThreadSource wd_src("ooc-fw-dag");
  const index_t n = m.rows();
  const index_t bs = m.tile_side();
  TaskGraph g = build_typed_task_graph(DagProblem::FloydWarshall, n, bs);
  detail::PrefetchDeduper dedupe;
  TaskRuntimeOptions ro;
  if (opts.ckpt != nullptr) {
    opts.ckpt->bind(DagProblem::FloydWarshall, n, bs, false);
    ro.ckpt = opts.ckpt;
  }
  if (opts.prefetch && opts.lookahead > 0) {
    ro.lookahead = opts.lookahead;
    ro.prefetch = [&m, &dedupe, bs](const BlockTask& t) {
      const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
      if (dedupe.should_hint(0, bi, bj)) m.prefetch_tile(bi, bj);
      if (dedupe.should_hint(0, bi, bk)) m.prefetch_tile(bi, bk);
      if (dedupe.should_hint(0, bk, bj)) m.prefetch_tile(bk, bj);
    };
  }
  run_task_graph(g, pool, [&m, bs](const BlockTask& t) {
    obs::throw_if_stop_requested();
    auto x = m.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
    auto u = m.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
    auto v = m.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
    kernel_fw(x.ptr, u.ptr, v.ptr, t.m, bs, bs, bs);
  }, ro);
}

template <class T>
void ooc_igep_lu_dag(OocTiledMatrix<T>& m, WorkStealingPool* pool,
                     OocDagOptions opts = {}) {
  detail::check_ooc_typed(m);
  obs::WatchdogThreadSource wd_src("ooc-lu-dag");
  const index_t n = m.rows();
  const index_t bs = m.tile_side();
  TaskGraph g = build_typed_task_graph(DagProblem::LU, n, bs);
  detail::PrefetchDeduper dedupe;
  TaskRuntimeOptions ro;
  if (opts.ckpt != nullptr) {
    opts.ckpt->bind(DagProblem::LU, n, bs, opts.lu_guard != nullptr);
    ro.ckpt = opts.ckpt;
  }
  if (opts.prefetch && opts.lookahead > 0) {
    ro.lookahead = opts.lookahead;
    ro.prefetch = [&m, &dedupe, bs](const BlockTask& t) {
      const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
      if (dedupe.should_hint(0, bi, bj)) m.prefetch_tile(bi, bj);
      if (dedupe.should_hint(0, bi, bk)) m.prefetch_tile(bi, bk);
      if (dedupe.should_hint(0, bk, bj)) m.prefetch_tile(bk, bj);
      if (dedupe.should_hint(0, bk, bk)) m.prefetch_tile(bk, bk);
    };
  }
  const PivotGuard* guard = opts.lu_guard;
  run_task_graph(g, pool, [&m, bs, guard](const BlockTask& t) {
    obs::throw_if_stop_requested();
    auto x = m.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
    auto u = m.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
    auto v = m.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
    auto w = m.pin_tile(t.k0 / bs, t.k0 / bs, /*for_write=*/false);
    const bool di = (t.kind == BoxKind::A || t.kind == BoxKind::B);
    const bool dj = (t.kind == BoxKind::A || t.kind == BoxKind::C);
    if (guard != nullptr) {
      kernel_lu_guarded(x.ptr, u.ptr, v.ptr, w.ptr, t.m, bs, bs, bs, bs, di,
                        dj, *guard, t.k0);
    } else {
      kernel_lu(x.ptr, u.ptr, v.ptr, w.ptr, t.m, bs, bs, bs, bs, di, dj);
    }
  }, ro);
}

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
  TaskGraph g = build_typed_task_graph(DagProblem::MatMul, n, bs);
  detail::PrefetchDeduper dedupe;
  TaskRuntimeOptions ro;
  if (opts.ckpt != nullptr) {
    opts.ckpt->bind(DagProblem::MatMul, n, bs, false);
    ro.ckpt = opts.ckpt;
  }
  if (opts.prefetch && opts.lookahead > 0) {
    ro.lookahead = opts.lookahead;
    ro.prefetch = [&c, &a, &b, &dedupe, bs](const BlockTask& t) {
      const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
      if (dedupe.should_hint(0, bi, bj)) c.prefetch_tile(bi, bj);
      if (dedupe.should_hint(1, bi, bk)) a.prefetch_tile(bi, bk);
      if (dedupe.should_hint(2, bk, bj)) b.prefetch_tile(bk, bj);
    };
  }
  run_task_graph(g, pool, [&c, &a, &b, bs](const BlockTask& t) {
    obs::throw_if_stop_requested();
    auto x = c.pin_tile(t.i0 / bs, t.j0 / bs, /*for_write=*/true);
    auto u = a.pin_tile(t.i0 / bs, t.k0 / bs, /*for_write=*/false);
    auto v = b.pin_tile(t.k0 / bs, t.j0 / bs, /*for_write=*/false);
    kernel_mm(x.ptr, u.ptr, v.ptr, t.m, bs, bs, bs);
  }, ro);
}

// Back-compat single-argument forms: synchronous sequential execution.
template <class T>
void ooc_igep_floyd_warshall(OocTiledMatrix<T>& m) {
  SeqInvoker inv;
  ooc_igep_floyd_warshall(m, inv);
}

template <class T>
void ooc_igep_lu(OocTiledMatrix<T>& m) {
  SeqInvoker inv;
  ooc_igep_lu(m, inv);
}

template <class T>
void ooc_igep_matmul(OocTiledMatrix<T>& c, OocTiledMatrix<T>& a,
                     OocTiledMatrix<T>& b) {
  SeqInvoker inv;
  ooc_igep_matmul(c, a, b, inv);
}

}  // namespace gep
