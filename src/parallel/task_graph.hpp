// Dependency-driven block-task runtime for typed I-GEP (ROADMAP item 2).
//
// The fork-join invoker (Fig. 6) serializes every recursion level at a
// join barrier even though only the A/B/C-kind boxes carry true
// dependencies. Here the typed A/B/C/D recursion (detail::typed_rec,
// run under SeqInvoker) *emits* a DAG of block tasks instead of
// executing them, straight from its leaves: one node per base-case box
// (kind, box, depth), with edges derived from the boxes' read/write
// BLOCK sets — the same X/U/V/W tile accesses the legality analysis
// reasons about. Emission order is the sequential execution order, and
// the builder runs the classic superscalar dependence analysis over it
// (RAW: read depends on the block's last writer; WAR: a write depends on
// every reader since that writer; WAW: writes to a block form a chain).
// Any topological execution of the resulting DAG therefore performs each
// block's update sequence in exactly the sequential order, which makes
// every schedule — 1 thread, N threads, work-stealing jitter and all —
// bit-identical to the sequential run.
//
// The runtime executes the DAG on the existing WorkStealingPool with
//  * data-dependency tracking (atomic unmet-predecessor counts),
//  * priority by critical path (longest cost-weighted path to the exit;
//    newly ready tasks are pushed so the LIFO pop order prefers the
//    critical path), and
//  * lookahead: the ready frontier extends past what used to be join
//    barriers, and its first `lookahead` tasks are announced to an
//    optional prefetch hook. Out-of-core drivers point that hook at
//    PageCache::prefetch, so the SAME scheduler state drives both the
//    workers and the async I/O worker (extmem/ooc_typed.hpp).
//
// The DAG is the default schedule of every typed I-GEP driver below
// (Runtime::Dag); Runtime::ForkJoin runs the same leaf body through the
// Fig. 6 recursion instead, with no graph. Both schedules instrument a
// leaf through detail::run_leaf. dag_sim.hpp's greedy_schedule is the
// quality oracle: task_graph_makespan() on this DAG must not exceed the
// fork-join DAG's makespan (fewer constraints, same greedy loop).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "gep/typed.hpp"
#include "parallel/dag_sim.hpp"
#include "parallel/work_stealing.hpp"

namespace gep {

// Dependency DAG over block tasks. Built task by task in sequential
// emission order; finalize() computes critical-path priorities.
class TaskGraph {
 public:
  // One block touched by a task. `mat` distinguishes operand matrices
  // (0 = X/C; matmul uses 1 = A, 2 = B); (bi, bj) are tile coordinates.
  struct Access {
    int mat;
    index_t bi, bj;
    bool write;
  };

  // Sizes the per-block analysis state: `grid_tiles` tiles per side,
  // `n_mats` operand matrices, and an expected task count to reserve
  // for. Must be called before the first add_task.
  void begin_build(index_t grid_tiles, int n_mats, std::size_t n_tasks);

  // Appends a task and derives its dependency edges from the accesses.
  // Tasks MUST be added in sequential execution order (the analysis
  // serializes each block's access history in that order). Returns the
  // task id. A block both written and read by one task counts as a
  // write only (in-place kernels read their own partially updated X).
  int add_task(const BlockTask& t, const Access* acc, int n_acc);

  // Computes priorities and the initial ready list. Call once, after
  // the last add_task; add_task afterwards is undefined.
  void finalize();

  int size() const { return static_cast<int>(tasks_.size()); }
  const BlockTask& task(int id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }
  double cost(int id) const { return task(id).cost; }
  const std::vector<int>& successors(int id) const {
    return succ_[static_cast<std::size_t>(id)];
  }
  int pred_count(int id) const { return preds_[static_cast<std::size_t>(id)]; }
  // Critical-path length (cost-weighted, inclusive) from this task to
  // the DAG's exit. Valid after finalize().
  double priority(int id) const {
    return priority_[static_cast<std::size_t>(id)];
  }
  std::size_t edge_count() const { return edges_; }
  double work() const { return work_; }        // sum of task costs
  double span() const { return span_; }        // critical path, finalized
  // Tasks with no predecessors, highest priority first.
  const std::vector<int>& initial_ready() const { return ready0_; }

  // Which counter family executions bill to (typed.* vs typed.mm.*),
  // and the matrix side the tasks' boxes clip to (LeafDims::clipped).
  DagProblem problem = DagProblem::FloydWarshall;
  index_t n = 0;

 private:
  struct BlockState {
    int last_writer = -1;
    std::vector<int> readers;  // since last_writer
  };

  std::vector<BlockTask> tasks_;
  std::vector<std::vector<int>> succ_;
  std::vector<int> preds_;
  std::vector<double> priority_;
  std::vector<int> ready0_;
  // Flat (mat, bi, bj) -> state array: the grid is known before the
  // first add_task, and a direct index beats hashing the coordinates on
  // the build's hot path (~4 lookups per task).
  std::vector<BlockState> blocks_;
  index_t grid_ = 0;
  std::vector<int> dep_scratch_;
  std::size_t edges_ = 0;
  double work_ = 0;
  double span_ = 0;
};

// Runs the typed recursion (gep/typed.hpp) sequentially and adds each
// leaf box, as it is emitted, to a TaskGraph with its access sets
// (X/U/V plus W for GE/LU; C/A/B for matmul) and dag_sim leaf cost.
// Any n: the same boxes as a run survive, with the same clipped
// extents. Emission records nothing: no span, counter or breadcrumb.
TaskGraph build_typed_task_graph(DagProblem prob, index_t n, index_t base);

// Checkpoint/restart contract between the runtime and a coordinator
// (extmem/checkpoint.hpp — declared here so parallel/ stays independent
// of extmem/). The runtime calls, around every leaf it executes:
//   is_done(id)  — skip the task entirely (completed before a resume);
//   leaf_enter() — may block while a snapshot is being cut (quiesce);
//   leaf_exit(id)— the leaf's effects are complete; marks the frontier
//                  and may itself cut a snapshot;
//   leaf_cancel()— the leaf was cancelled BEFORE mutating anything
//                  (JobCancelled unwinds between enter and the kernel);
//   leaf_abort() — the leaf died mid-kernel; its block is half-updated
//                  and NO further snapshot may be taken.
// All methods may be called from any worker thread.
class TaskCheckpointHook {
 public:
  virtual ~TaskCheckpointHook() = default;
  virtual bool is_done(int id) const = 0;
  virtual void leaf_enter() = 0;
  virtual void leaf_exit(int id) = 0;
  virtual void leaf_cancel() noexcept = 0;
  virtual void leaf_abort() noexcept = 0;
};

struct TaskRuntimeOptions {
  // Ready tasks announced to `prefetch` ahead of execution. 0 disables
  // the hook. The window is counted in TASKS (each OOC task pins up to
  // 4 tiles), bounding how many unpinned frames hints can occupy.
  int lookahead = 0;
  // Called once per task when it enters the lookahead window (ready, or
  // about to run in the sequential engine). May run on any thread.
  std::function<void(const BlockTask&)> prefetch;
  // Optional checkpoint coordinator. Completed tasks (is_done) are
  // skipped — the resume path — and every executed leaf is bracketed by
  // leaf_enter/leaf_exit so snapshots only ever see whole-leaf states.
  TaskCheckpointHook* ckpt = nullptr;
};

// Executes the DAG. With a pool of >= 2 threads, ready tasks run on the
// work-stealing pool (the calling thread helps); otherwise tasks run on
// the calling thread in emission order — exactly the sequential typed
// engine's schedule. A leaf exception stops dependents of the failed
// task from being submitted and rethrows from here (first failure wins,
// matching WsTaskGroup::wait).
void run_task_graph(const TaskGraph& g, WorkStealingPool* pool,
                    const std::function<void(const BlockTask&)>& leaf,
                    const TaskRuntimeOptions& opts = {});

// Greedy list-scheduling makespan of the task DAG with p virtual
// processors, dispatching by critical-path priority — greedy_schedule
// (parallel/dag_sim.hpp), as dag_makespan() runs it over the fork-join
// DAG, for schedule-quality validation.
double task_graph_makespan(const TaskGraph& g, int p);

// --- typed I-GEP problem drivers -------------------------------------------
// One driver per problem, one leaf body each, run under either schedule
// (opts.runtime):
//   Dag      — build_typed_task_graph + run_task_graph on `pool`;
//   ForkJoin — the typed recursion (gep/typed.hpp) under WsParInvoker
//              on `pool`: Fig. 6, and the nested (kind, depth) profile.
// pool == nullptr (or a 1-thread pool) runs either one sequentially, in
// the recursion's order. Any n runs in place: a store's tiles are
// leaf_side(base_size, n) wide, so RowMajorStore{data, n, that side}
// views the caller's n x n matrix as it is.

struct TypedOptions {
  index_t base_size = 64;  // paper: best 64 (Opteron) / 128 (Xeon)
  Runtime runtime = Runtime::Dag;
};

namespace detail {

// Runs `leaf(i0, j0, k0, LeafDims, BoxKind)` over every box of the
// problem under the selected schedule, each call instrumented by
// run_leaf.
template <class Leaf>
void run_typed(DagProblem prob, WorkStealingPool* pool, index_t n,
               index_t bs, Runtime rt, const Leaf& leaf) {
  auto body = [&](const BlockTask& t) {
    leaf(t.i0, t.j0, t.k0, LeafDims::clipped(n, t.i0, t.j0, t.k0, t.m),
         t.kind);
  };
  if (rt == Runtime::Dag) {
    run_task_graph(build_typed_task_graph(prob, n, bs), pool, body);
    return;
  }
  WsParInvoker inv{pool};
  typed_rec(inv, prob, n, 0, 0, 0, grid_side(n, bs), bs,
            [&](const BlockTask& t) {
              run_leaf(prob, n, t, [&] { body(t); });
            });
}

}  // namespace detail

// Floyd-Warshall over a TileStore. Σ is the full cube: nothing prunes.
template <class Store>
void igep_floyd_warshall(WorkStealingPool* pool, const Store& st, index_t n,
                         TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  detail::run_typed(DagProblem::FloydWarshall, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind) {
                      T* x = st.tile(i0 / bs, j0 / bs);
                      const T* u = st.tile(i0 / bs, k0 / bs);
                      const T* v = st.tile(k0 / bs, j0 / bs);
                      kernel_fw(x, u, v, d, s, s, s);
                    });
}

// Floyd-Warshall with successor tracking: dst holds distances, sst the
// successor (next hop) indices; both advance in lockstep. The successor
// tiles are read and written exactly where the distance tiles are, so
// Floyd-Warshall's task graph orders them too.
template <class StoreD, class StoreS>
void igep_floyd_warshall_paths(WorkStealingPool* pool, const StoreD& dst,
                               const StoreS& sst, index_t n,
                               TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw-paths");
  using T = std::remove_reference_t<decltype(dst.tile(0, 0)[0])>;
  using I = std::remove_reference_t<decltype(sst.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = dst.tile_stride();
  const index_t ss = sst.tile_stride();
  detail::run_typed(DagProblem::FloydWarshall, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind) {
                      T* x = dst.tile(i0 / bs, j0 / bs);
                      const T* u = dst.tile(i0 / bs, k0 / bs);
                      const T* v = dst.tile(k0 / bs, j0 / bs);
                      I* xs = sst.tile(i0 / bs, j0 / bs);
                      const I* us = sst.tile(i0 / bs, k0 / bs);
                      kernel_fw_paths(x, u, v, xs, us, d, s, s, s, ss, ss);
                    });
}

// Maximum-capacity (bottleneck) paths over a TileStore.
template <class Store>
void igep_bottleneck(WorkStealingPool* pool, const Store& st, index_t n,
                     TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-bottleneck");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  detail::run_typed(DagProblem::FloydWarshall, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind) {
                      T* x = st.tile(i0 / bs, j0 / bs);
                      const T* u = st.tile(i0 / bs, k0 / bs);
                      const T* v = st.tile(k0 / bs, j0 / bs);
                      kernel_bottleneck(x, u, v, d, s, s, s);
                    });
}

// Transitive closure (boolean or-and Floyd-Warshall) over a TileStore.
template <class Store>
void igep_transitive_closure(WorkStealingPool* pool, const Store& st,
                             index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-tc");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  detail::run_typed(DagProblem::FloydWarshall, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind) {
                      T* x = st.tile(i0 / bs, j0 / bs);
                      const T* u = st.tile(i0 / bs, k0 / bs);
                      const T* v = st.tile(k0 / bs, j0 / bs);
                      kernel_tc(x, u, v, d, s, s, s);
                    });
}

// Gaussian elimination without pivoting (Σ: k < i && k < j).
template <class Store>
void igep_gaussian(WorkStealingPool* pool, const Store& st, index_t n,
                   TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-ge");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  detail::run_typed(DagProblem::Gaussian, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind kind) {
                      T* x = st.tile(i0 / bs, j0 / bs);
                      const T* u = st.tile(i0 / bs, k0 / bs);
                      const T* v = st.tile(k0 / bs, j0 / bs);
                      const T* w = st.tile(k0 / bs, k0 / bs);
                      kernel_ge(x, u, v, w, d, s, s, s, s,
                                detail::diag_i(kind), detail::diag_j(kind));
                    });
}

// LU decomposition without pivoting (Σ: k < i && k <= j); multipliers are
// stored in the strictly lower triangle.
template <class Store>
void igep_lu(WorkStealingPool* pool, const Store& st, index_t n,
             TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-lu");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  detail::run_typed(DagProblem::LU, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind kind) {
                      T* x = st.tile(i0 / bs, j0 / bs);
                      const T* u = st.tile(i0 / bs, k0 / bs);
                      const T* v = st.tile(k0 / bs, j0 / bs);
                      const T* w = st.tile(k0 / bs, k0 / bs);
                      kernel_lu(x, u, v, w, d, s, s, s, s,
                                detail::diag_i(kind), detail::diag_j(kind));
                    });
}

// C += A·B with A, B, C in separate tile stores.
template <class StoreC, class StoreA, class StoreB>
void igep_matmul(WorkStealingPool* pool, const StoreC& cst, const StoreA& ast,
                 const StoreB& bst, index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-mm");
  using T = std::remove_reference_t<decltype(cst.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t sc = cst.tile_stride();
  const index_t sa = ast.tile_stride();
  const index_t sb = bst.tile_stride();
  detail::run_typed(DagProblem::MatMul, pool, n, bs, opts.runtime,
                    [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                        BoxKind) {
                      T* x = cst.tile(i0 / bs, j0 / bs);
                      const T* a = ast.tile(i0 / bs, k0 / bs);
                      const T* b = bst.tile(k0 / bs, j0 / bs);
                      kernel_mm(x, a, b, d, sc, sa, sb);
                    });
}

}  // namespace gep
