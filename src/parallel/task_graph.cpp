#include "parallel/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace gep {

void TaskGraph::begin_build(index_t grid_tiles, int n_mats,
                            std::size_t n_tasks) {
  grid_ = grid_tiles;
  blocks_.assign(static_cast<std::size_t>(n_mats) *
                     static_cast<std::size_t>(grid_tiles) *
                     static_cast<std::size_t>(grid_tiles),
                 BlockState{});
  tasks_.reserve(n_tasks);
  succ_.reserve(n_tasks);
  preds_.reserve(n_tasks);
}

int TaskGraph::add_task(const BlockTask& t, const Access* acc, int n_acc) {
  const int id = static_cast<int>(tasks_.size());
  tasks_.push_back(t);
  succ_.emplace_back();
  preds_.push_back(0);
  work_ += t.cost;

  auto key = [this](const Access& a) {
    return (static_cast<std::size_t>(a.mat) * static_cast<std::size_t>(grid_) +
            static_cast<std::size_t>(a.bi)) *
               static_cast<std::size_t>(grid_) +
           static_cast<std::size_t>(a.bj);
  };

  // Collect dependencies from the pre-task block states: a write waits
  // for the block's last writer (WAW) and every reader since it (WAR); a
  // read waits for the last writer (RAW).
  dep_scratch_.clear();
  for (int i = 0; i < n_acc; ++i) {
    const BlockState& st = blocks_[key(acc[i])];
    if (st.last_writer >= 0) dep_scratch_.push_back(st.last_writer);
    if (acc[i].write) {
      dep_scratch_.insert(dep_scratch_.end(), st.readers.begin(),
                          st.readers.end());
    }
  }

  // Update the states: writes first, so a block this task both writes
  // and reads (the in-place A/B/C leaves read their own partially
  // updated X) registers as a write only.
  for (int i = 0; i < n_acc; ++i) {
    if (!acc[i].write) continue;
    BlockState& st = blocks_[key(acc[i])];
    st.last_writer = id;
    st.readers.clear();
  }
  for (int i = 0; i < n_acc; ++i) {
    if (acc[i].write) continue;
    BlockState& st = blocks_[key(acc[i])];
    if (st.last_writer == id) continue;
    // Duplicate reads of one block (GE's U and W coincide in B-kind
    // boxes) would land adjacent: ids only grow.
    if (!st.readers.empty() && st.readers.back() == id) continue;
    st.readers.push_back(id);
  }

  std::sort(dep_scratch_.begin(), dep_scratch_.end());
  dep_scratch_.erase(std::unique(dep_scratch_.begin(), dep_scratch_.end()),
                     dep_scratch_.end());
  for (int d : dep_scratch_) {
    succ_[static_cast<std::size_t>(d)].push_back(id);
    preds_[static_cast<std::size_t>(id)] += 1;
    ++edges_;
  }
  return id;
}

void TaskGraph::finalize() {
  const int n = size();
  priority_.assign(static_cast<std::size_t>(n), 0.0);
  span_ = 0;
  // Emission order is topological (every dependency has a smaller id),
  // so one backward sweep computes the critical path to the exit.
  for (int id = n - 1; id >= 0; --id) {
    double best = 0;
    for (int s : succ_[static_cast<std::size_t>(id)]) {
      best = std::max(best, priority_[static_cast<std::size_t>(s)]);
    }
    priority_[static_cast<std::size_t>(id)] =
        tasks_[static_cast<std::size_t>(id)].cost + best;
    span_ = std::max(span_, priority_[static_cast<std::size_t>(id)]);
  }
  ready0_.clear();
  for (int id = 0; id < n; ++id) {
    if (preds_[static_cast<std::size_t>(id)] == 0) ready0_.push_back(id);
  }
  std::sort(ready0_.begin(), ready0_.end(), [this](int a, int b) {
    const double pa = priority_[static_cast<std::size_t>(a)];
    const double pb = priority_[static_cast<std::size_t>(b)];
    // Priority ties resolve to emission (sequential) order.
    return pa != pb ? pa > pb : a < b;
  });
  // The per-block analysis state is only needed while adding tasks.
  blocks_.clear();
  blocks_.shrink_to_fit();
  dep_scratch_.clear();
  dep_scratch_.shrink_to_fit();
}

TaskGraph build_typed_task_graph(DagProblem prob, index_t n, index_t base) {
  TaskGraph g;
  g.problem = prob;
  g.n = n;
  const index_t bs = leaf_side(base, n);
  const std::size_t grid = static_cast<std::size_t>((n + bs - 1) / bs);
  // One task per tile triple (bi, bj, bk) in the grid; GE/LU keep those
  // with bk <= bi, bj.
  const bool tri = prob == DagProblem::Gaussian || prob == DagProblem::LU;
  g.begin_build(static_cast<index_t>(grid), prob == DagProblem::MatMul ? 3 : 1,
                tri ? grid * (grid + 1) * (2 * grid + 1) / 6
                    : grid * grid * grid);
  TaskGraph::Access acc[4];
  SeqInvoker seq;
  // Emission order is the recursion's sequential order, which the
  // superscalar analysis in add_task requires.
  detail::typed_rec(seq, prob, n, 0, 0, 0, grid_side(n, bs), bs,
                    [&](BlockTask t) {
    t.cost = leaf_cost(prob, LeafDims::clipped(n, t.i0, t.j0, t.k0, t.m),
                       detail::diag_i(t.kind), detail::diag_j(t.kind));
    const index_t bi = t.i0 / bs, bj = t.j0 / bs, bk = t.k0 / bs;
    int na = 0;
    if (prob == DagProblem::MatMul) {
      acc[na++] = TaskGraph::Access{0, bi, bj, true};   // C
      acc[na++] = TaskGraph::Access{1, bi, bk, false};  // A
      acc[na++] = TaskGraph::Access{2, bk, bj, false};  // B
    } else {
      acc[na++] = TaskGraph::Access{0, bi, bj, true};   // X
      acc[na++] = TaskGraph::Access{0, bi, bk, false};  // U
      acc[na++] = TaskGraph::Access{0, bk, bj, false};  // V
      if (tri) acc[na++] = TaskGraph::Access{0, bk, bk, false};  // W (pivot)
    }
    g.add_task(t, acc, na);
  });
  g.finalize();
  obs::counter("parallel.dag.tasks").inc(static_cast<std::uint64_t>(g.size()));
  obs::counter("parallel.dag.edges").inc(
      static_cast<std::uint64_t>(g.edge_count()));
  return g;
}

namespace {

// Shared execution state for one run_task_graph call. Each leaf runs
// through detail::run_leaf, the fork-join leaves' instrumentation, so
// profiles and progress meters read identically across runtimes.
struct DagExec {
  const TaskGraph& g;
  const std::function<void(const BlockTask&)>& leaf;
  const TaskRuntimeOptions& opts;
  WsTaskGroup* group = nullptr;
  std::unique_ptr<std::atomic<int>[]> unmet;
  std::unique_ptr<std::atomic<bool>[]> was_hinted;
  std::atomic<int> hints_out{0};

  DagExec(const TaskGraph& graph,
          const std::function<void(const BlockTask&)>& l,
          const TaskRuntimeOptions& o)
      : g(graph), leaf(l), opts(o) {}

  bool hinting() const { return opts.lookahead > 0 && opts.prefetch; }

  // Issues the prefetch hint for a ready task if the lookahead window
  // has room. Outstanding = hinted but not yet started, so the window
  // bounds how many speculative working sets the hints can occupy.
  void maybe_hint(int id) {
    if (!hinting()) return;
    int h = hints_out.load(std::memory_order_relaxed);
    while (h < opts.lookahead) {
      if (hints_out.compare_exchange_weak(h, h + 1,
                                          std::memory_order_relaxed)) {
        was_hinted[id].store(true, std::memory_order_relaxed);
        obs::counter("parallel.dag.hints").inc();
        opts.prefetch(g.task(id));
        return;
      }
    }
  }

  void exec_leaf(int id) {
    const BlockTask& t = g.task(id);
    if (was_hinted != nullptr &&
        was_hinted[id].load(std::memory_order_relaxed)) {
      hints_out.fetch_sub(1, std::memory_order_relaxed);
    }
    // Quiesce gate: may block here while a snapshot is being cut. The
    // leaf has not touched its blocks yet, so a JobCancelled unwinding
    // from inside (leaf's own stop-poll) is a CLEAN cancel; any other
    // exception mid-kernel leaves a half-updated block and poisons
    // further snapshots (leaf_abort).
    if (opts.ckpt != nullptr) opts.ckpt->leaf_enter();
    try {
      obs::flight::record(obs::flightfmt::kTaskRun,
                          static_cast<std::uint64_t>(id));
      detail::run_leaf(g.problem, g.n, t, [&] { leaf(t); });
    } catch (const obs::JobCancelled&) {
      if (opts.ckpt != nullptr) opts.ckpt->leaf_cancel();
      throw;
    } catch (...) {
      if (opts.ckpt != nullptr) opts.ckpt->leaf_abort();
      throw;
    }
    obs::flight::record(obs::flightfmt::kTaskRetire,
                        static_cast<std::uint64_t>(id));
    if (opts.ckpt != nullptr) opts.ckpt->leaf_exit(id);
  }

  void submit(int id) {
    obs::flight::record(obs::flightfmt::kTaskReady,
                        static_cast<std::uint64_t>(id));
    maybe_hint(id);
    group->run([this, id] { run_parallel(id); });
  }

  void run_parallel(int id) {
    thread_local std::vector<int> newly;
    while (true) {
      exec_leaf(id);
      // Release successors. A leaf that threw skips this (the exception
      // is captured by the pool and rethrown from wait()), so dependents
      // of a failed task are never submitted. acq_rel: the last
      // predecessor's matrix writes happen-before the successor's
      // execution.
      newly.clear();
      for (int s : g.successors(id)) {
        if (unmet[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          newly.push_back(s);
        }
      }
      if (newly.empty()) return;
      // The deque pops LIFO, so submit in ASCENDING priority: the
      // highest-priority (deepest critical path) task lands on top.
      // Ties resolve to emission order popping first (larger id pushed
      // earlier).
      std::sort(newly.begin(), newly.end(), [this](int a, int b) {
        const double pa = g.priority(a), pb = g.priority(b);
        return pa != pb ? pa < pb : a > b;
      });
      // Work-first continuation: the best released successor runs inline
      // on this worker. It shares blocks with the task that released it,
      // and most tasks release exactly one successor (the block's WAW
      // chain), so skipping the deque removes a push/pop/steal round
      // trip per task and keeps the critical path off the steal path.
      const int next = newly.back();
      newly.pop_back();
      for (int s : newly) submit(s);
      obs::flight::record(obs::flightfmt::kTaskReady,
                          static_cast<std::uint64_t>(next));
      id = next;
    }
  }
};

}  // namespace

void run_task_graph(const TaskGraph& g, WorkStealingPool* pool,
                    const std::function<void(const BlockTask&)>& leaf,
                    const TaskRuntimeOptions& opts) {
  const int n = g.size();
  if (n == 0) return;
  if (pool == nullptr || pool->threads() <= 1) {
    // Sequential engine: execute in emission order — a topological
    // order that IS the typed recursion's sequential schedule — with a
    // cursor hinting `lookahead` tasks past the one about to run. No
    // group machinery: chaining submits through WsTaskGroup::run's
    // inline path would recurse a full DAG deep.
    DagExec ex(g, leaf, opts);
    int cursor = 0;
    for (int id = 0; id < n; ++id) {
      // Resume path: tasks the checkpoint frontier already covers are
      // skipped (their effects were replayed from the snapshot). Skipped
      // tasks are not hinted either — their pages are not needed.
      if (opts.ckpt != nullptr && opts.ckpt->is_done(id)) {
        cursor = std::max(cursor, id + 1);
        continue;
      }
      if (ex.hinting()) {
        const int limit = std::min(n, id + 1 + opts.lookahead);
        for (; cursor < limit; ++cursor) {
          if (opts.ckpt != nullptr && opts.ckpt->is_done(cursor)) continue;
          obs::flight::record(obs::flightfmt::kTaskReady,
                              static_cast<std::uint64_t>(cursor));
          obs::counter("parallel.dag.hints").inc();
          opts.prefetch(g.task(cursor));
        }
      }
      ex.exec_leaf(id);
    }
    return;
  }

  DagExec ex(g, leaf, opts);
  ex.unmet = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(n));
  ex.was_hinted = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    ex.unmet[id].store(g.pred_count(id), std::memory_order_relaxed);
    ex.was_hinted[id].store(false, std::memory_order_relaxed);
  }
  if (opts.ckpt != nullptr) {
    // Resume path: the frontier is a dependence downset (every
    // predecessor of a done task is done), so retiring the done set up
    // front — decrement successors, never execute — leaves exactly the
    // not-done tasks with their not-done predecessor counts.
    for (int id = 0; id < n; ++id) {
      if (!opts.ckpt->is_done(id)) continue;
      for (int s : g.successors(id)) {
        ex.unmet[s].fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  WsTaskGroup group(pool);
  ex.group = &group;
  // initial_ready() is priority-descending; push ascending so the LIFO
  // pop order starts on the critical path.
  if (opts.ckpt != nullptr) {
    // The seeds are every not-done task whose predecessors are all done.
    std::vector<int> r0;
    for (int id = 0; id < n; ++id) {
      if (opts.ckpt->is_done(id)) continue;
      if (ex.unmet[id].load(std::memory_order_relaxed) == 0) {
        r0.push_back(id);
      }
    }
    if (r0.empty()) return;  // everything already done
    std::sort(r0.begin(), r0.end(), [&g](int a, int b) {
      const double pa = g.priority(a), pb = g.priority(b);
      return pa != pb ? pa > pb : a < b;
    });
    for (auto it = r0.rbegin(); it != r0.rend(); ++it) ex.submit(*it);
  } else {
    const std::vector<int>& r0 = g.initial_ready();
    for (auto it = r0.rbegin(); it != r0.rend(); ++it) ex.submit(*it);
  }
  group.wait();
}

double task_graph_makespan(const TaskGraph& g, int p) {
  // Critical-path priority; ties resolve to emission order.
  return greedy_schedule(
      g, p,
      [&g](int a, int b) {
        const double pa = g.priority(a), pb = g.priority(b);
        return pa != pb ? pa > pb : a < b;
      },
      [](int, int, double) {});
}

}  // namespace gep
