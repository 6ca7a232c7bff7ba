// Fork-join DAG construction and p-processor schedule simulation.
//
// The host running this reproduction may have fewer cores than the
// paper's 8-processor Opteron 850, so in addition to the real pthreads
// execution we reproduce Figure 12's speedup curves with a scheduler
// simulation: the exact series-parallel DAG of multithreaded I-GEP
// (Fig. 6) is recorded from the typed recursion (gep/typed.hpp) with
// leaf costs equal to the update counts of each base-case box, then
// executed by a greedy list scheduler with p virtual processors. T(1) equals the work; T(p) is the makespan. This is the
// machine model Theorem 3.1 analyzes (T1/p + T∞), and the *relative*
// parallelism of MM vs FW vs GE — the content of Fig. 12 — is a
// structural property of the DAG, not of the silicon.
#pragma once

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "matrix/matrix.hpp"

namespace gep {

// Series-parallel task tree: a node is either a leaf with a cost, or a
// series of stages, each stage a list of parallel children.
struct SPNode {
  double cost = 0;  // leaf cost (update count); ignored for inner nodes
  int leaf_id = -1; // index into the box list (leaves only; -1 otherwise)
  std::vector<std::vector<SPNode>> stages;

  bool is_leaf() const { return stages.empty(); }
};

enum class DagProblem { FloydWarshall, Gaussian, LU, MatMul };

// The one prune rule of the typed recursion (gep/typed.hpp), the task
// graph and this simulator: the box (i0, j0, k0) holds no update of the
// n x n problem when it starts at or beyond n along i, j or k, or when
// it misses Σ. Aligned ranges are equal or disjoint, so a GE/LU box
// misses Σ iff its i- or j-range lies strictly below its k-range.
inline bool prunes(DagProblem prob, index_t n, index_t i0, index_t j0,
                   index_t k0) {
  if (i0 >= n || j0 >= n || k0 >= n) return true;
  return (prob == DagProblem::Gaussian || prob == DagProblem::LU) &&
         (i0 < k0 || j0 < k0);
}

// One base-case box of the recursion (element-index coordinates); its
// extents are LeafDims::clipped(n, i0, j0, k0, m).
struct LeafBox {
  index_t i0, j0, k0, m;
};

// Update count of one base-case box — the leaf cost build_igep_dag
// assigns, from the box's clipped extents. di/dj are the diagonal-
// overlap flags (i0 == k0, j0 == k0); GE/LU boxes touching the diagonal
// skip already-eliminated rows or columns, so their cost is below
// mi·mj·mk. Shared with the task-graph runtime (task_graph.hpp) so both
// schedulers price work identically.
double leaf_cost(DagProblem prob, LeafDims d, bool di, bool dj);

// Builds the multithreaded I-GEP DAG for an n x n problem, any n, with
// the given base size: detail::typed_rec (gep/typed.hpp) recorded over
// the virtual power-of-two tile grid (matrix/matrix.hpp) — each of its
// stages is one stage here, pruned boxes dropped. When `boxes` is
// non-null it receives the leaf boxes; SPNode::leaf_id indexes into it.
SPNode build_igep_dag(DagProblem prob, index_t n, index_t base,
                      std::vector<LeafBox>* boxes = nullptr);

// One leaf execution in a simulated p-processor greedy schedule.
struct ScheduledLeaf {
  int leaf_id;   // index into the box list
  int proc;      // virtual processor that ran it
  double start;  // start time in the simulation
};

// Greedy schedule (same policy as dag_makespan) returning the leaf
// executions ordered by start time — input for the shared/distributed
// cache replays of the Lemma 3.1/3.2 experiments.
std::vector<ScheduledLeaf> dag_schedule(const SPNode& root, int p);

// Total work (sum of leaf costs).
double dag_work(const SPNode& root);

// Critical path length (infinite processors).
double dag_span(const SPNode& root);

// Greedy list-scheduling makespan with p processors (PDF dispatch:
// ready tasks run in sequential-DFS priority order; non-preemptive).
double dag_makespan(const SPNode& root, int p);

// The one greedy list scheduler (non-preemptive, p virtual processors)
// behind dag_makespan, dag_schedule and task_graph_makespan: whenever a
// processor is idle, the ready node that `before` orders first starts
// on it, and on_start(id, proc, t) sees the start. Returns the
// makespan. `g` exposes size(), cost(id), pred_count(id) and
// successors(id).
template <class Graph, class Before, class OnStart>
double greedy_schedule(const Graph& g, int p, Before before,
                       OnStart on_start) {
  const int n = g.size();
  std::vector<int> unmet(static_cast<std::size_t>(n));
  auto after = [&before](int a, int b) { return before(b, a); };
  std::priority_queue<int, std::vector<int>, decltype(after)> ready(after);
  for (int id = 0; id < n; ++id) {
    unmet[static_cast<std::size_t>(id)] = g.pred_count(id);
    if (unmet[static_cast<std::size_t>(id)] == 0) ready.push(id);
  }
  using Event = std::tuple<double, int, int>;  // (finish, node, proc)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  std::vector<int> idle_procs;
  for (int q = std::max(1, p) - 1; q >= 0; --q) idle_procs.push_back(q);
  double t = 0;
  for (int done = 0; done < n; ++done) {
    while (!idle_procs.empty() && !ready.empty()) {
      const int id = ready.top();
      ready.pop();
      const int proc = idle_procs.back();
      idle_procs.pop_back();
      on_start(id, proc, t);
      running.emplace(t + g.cost(id), id, proc);
    }
    const auto [finish, id, proc] = running.top();
    running.pop();
    t = finish;
    idle_procs.push_back(proc);
    for (int s : g.successors(id)) {
      if (--unmet[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  return t;
}

}  // namespace gep
