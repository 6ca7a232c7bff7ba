#include "parallel/dag_sim.hpp"

#include <algorithm>
#include <array>
#include <queue>

namespace gep {
namespace {

// Update count of a base-case box with the given diagonal restrictions:
// sum over k < mk of (#i) * (#j), where a diagonal-restricted index runs
// over k+1..mi-1 (strict) or k..mj-1 (inclusive, used by LU's j range).
// A diagonal restriction implies that extent equals mk.
double box_cost(LeafDims d, bool di_strict,
                int j_mode /*0=full,1=strict,2=incl*/) {
  double total = 0;
  for (index_t k = 0; k < d.mk; ++k) {
    double ci = di_strict ? static_cast<double>(d.mi - 1 - k)
                          : static_cast<double>(d.mi);
    double cj = j_mode == 0   ? static_cast<double>(d.mj)
                : j_mode == 1 ? static_cast<double>(d.mj - 1 - k)
                              : static_cast<double>(d.mj - k);
    total += ci * cj;
  }
  return total;
}

struct Builder {
  DagProblem prob;
  index_t n;
  index_t base;
  std::vector<LeafBox>* boxes = nullptr;

  SPNode leaf(index_t i0, index_t j0, index_t k0, index_t m) const {
    const bool di = (i0 == k0);
    const bool dj = (j0 == k0);
    const LeafDims d = LeafDims::clipped(n, i0, j0, k0, m);
    SPNode node;
    if (boxes != nullptr) {
      node.leaf_id = static_cast<int>(boxes->size());
      boxes->push_back(LeafBox{i0, j0, k0, m});
    }
    node.cost = leaf_cost(prob, d, di, dj);
    return node;
  }

  SPNode rec(index_t i0, index_t j0, index_t k0, index_t m) const {
    if (m <= base) return leaf(i0, j0, k0, m);
    const index_t h = m / 2;
    const index_t ka = k0, kb = k0 + h;
    const bool ik = (i0 == k0), jk = (j0 == k0);
    SPNode node;
    auto add_stage = [&](std::vector<std::array<index_t, 3>> calls) {
      std::vector<SPNode> group;
      for (auto [ii, jj, kk] : calls) {
        if (!prunes(prob, n, ii, jj, kk)) group.push_back(rec(ii, jj, kk, h));
      }
      if (!group.empty()) node.stages.push_back(std::move(group));
    };
    if (prob == DagProblem::MatMul) {  // pure D: two 4-way stages
      add_stage({{i0, j0, ka}, {i0, j0 + h, ka}, {i0 + h, j0, ka},
                 {i0 + h, j0 + h, ka}});
      add_stage({{i0, j0, kb}, {i0, j0 + h, kb}, {i0 + h, j0, kb},
                 {i0 + h, j0 + h, kb}});
    } else if (ik && jk) {  // A
      add_stage({{i0, j0, ka}});
      add_stage({{i0, j0 + h, ka}, {i0 + h, j0, ka}});
      add_stage({{i0 + h, j0 + h, ka}});
      add_stage({{i0 + h, j0 + h, kb}});
      add_stage({{i0 + h, j0, kb}, {i0, j0 + h, kb}});
      add_stage({{i0, j0, kb}});
    } else if (ik) {  // B
      add_stage({{i0, j0, ka}, {i0, j0 + h, ka}});
      add_stage({{i0 + h, j0, ka}, {i0 + h, j0 + h, ka}});
      add_stage({{i0 + h, j0, kb}, {i0 + h, j0 + h, kb}});
      add_stage({{i0, j0, kb}, {i0, j0 + h, kb}});
    } else if (jk) {  // C
      add_stage({{i0, j0, ka}, {i0 + h, j0, ka}});
      add_stage({{i0, j0 + h, ka}, {i0 + h, j0 + h, ka}});
      add_stage({{i0, j0 + h, kb}, {i0 + h, j0 + h, kb}});
      add_stage({{i0, j0, kb}, {i0 + h, j0, kb}});
    } else {  // D
      add_stage({{i0, j0, ka}, {i0, j0 + h, ka}, {i0 + h, j0, ka},
                 {i0 + h, j0 + h, ka}});
      add_stage({{i0, j0, kb}, {i0, j0 + h, kb}, {i0 + h, j0, kb},
                 {i0 + h, j0 + h, kb}});
    }
    return node;
  }
};

struct FlatNode {
  double cost = 0;
  int leaf_id = -1;
  int unmet = 0;
  std::vector<int> succ;
};

struct FlatDag {
  std::vector<FlatNode> nodes;

  int add(double cost, int leaf_id = -1) {
    nodes.push_back(FlatNode{cost, leaf_id, 0, {}});
    return static_cast<int>(nodes.size()) - 1;
  }
  void edge(int from, int to) {
    nodes[static_cast<std::size_t>(from)].succ.push_back(to);
    nodes[static_cast<std::size_t>(to)].unmet += 1;
  }

  // Returns (entry nodes, exit nodes) of the subgraph for sp.
  std::pair<std::vector<int>, std::vector<int>> build(const SPNode& sp) {
    if (sp.is_leaf()) {
      int id = add(sp.cost, sp.leaf_id);
      return {{id}, {id}};
    }
    std::vector<int> first_entries;
    std::vector<int> prev_exits;
    bool first = true;
    for (const auto& stage : sp.stages) {
      std::vector<int> entries, exits;
      for (const auto& child : stage) {
        auto [e, x] = build(child);
        entries.insert(entries.end(), e.begin(), e.end());
        exits.insert(exits.end(), x.begin(), x.end());
      }
      if (entries.empty()) continue;  // fully pruned stage
      if (first) {
        first_entries = entries;
        first = false;
      } else {
        // Zero-cost join keeps the edge count linear.
        int join = add(0);
        for (int x : prev_exits) edge(x, join);
        for (int e : entries) edge(join, e);
      }
      prev_exits = exits;
    }
    if (first) {  // everything pruned: empty subgraph -> zero-cost node
      int id = add(0);
      return {{id}, {id}};
    }
    return {first_entries, prev_exits};
  }
};

}  // namespace

double leaf_cost(DagProblem prob, LeafDims d, bool di, bool dj) {
  switch (prob) {
    case DagProblem::Gaussian:
      return box_cost(d, di, dj ? 1 : 0);
    case DagProblem::LU:
      return box_cost(d, di, dj ? 2 : 0);
    case DagProblem::FloydWarshall:
    case DagProblem::MatMul:
      break;
  }
  return static_cast<double>(d.mi) * static_cast<double>(d.mj) *
         static_cast<double>(d.mk);
}

SPNode build_igep_dag(DagProblem prob, index_t n, index_t base,
                      std::vector<LeafBox>* boxes) {
  if (n <= 0) return SPNode{};
  const index_t bs = leaf_side(base, n);
  Builder b{prob, n, bs, boxes};
  return b.rec(0, 0, 0, grid_side(n, bs));
}

double dag_work(const SPNode& root) {
  if (root.is_leaf()) return root.cost;
  double total = 0;
  for (const auto& stage : root.stages) {
    for (const auto& child : stage) total += dag_work(child);
  }
  return total;
}

double dag_span(const SPNode& root) {
  if (root.is_leaf()) return root.cost;
  double total = 0;
  for (const auto& stage : root.stages) {
    double widest = 0;
    for (const auto& child : stage) widest = std::max(widest, dag_span(child));
    total += widest;
  }
  return total;
}

namespace {

// Shared greedy event loop; fills `sched` (when non-null) with one entry
// per leaf node, ordered by start time.
double run_greedy(FlatDag& dag, int p, std::vector<ScheduledLeaf>* sched) {
  // Ready nodes are dispatched by DFS priority (node ids are assigned in
  // DFS order), making this a PDF (parallel depth-first) schedule: with
  // p = 1 it reduces to the sequential execution order, which is the
  // property Lemma 3.2 builds on.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (std::size_t id = 0; id < dag.nodes.size(); ++id) {
    if (dag.nodes[id].unmet == 0) ready.push(static_cast<int>(id));
  }
  using Event = std::tuple<double, int, int>;  // (finish, node, proc)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  std::vector<int> idle_procs;
  for (int q = std::max(1, p) - 1; q >= 0; --q) idle_procs.push_back(q);
  double t = 0;
  std::size_t done = 0;
  while (done < dag.nodes.size()) {
    while (!idle_procs.empty() && !ready.empty()) {
      int id = ready.top();
      ready.pop();
      int proc = idle_procs.back();
      idle_procs.pop_back();
      const FlatNode& node = dag.nodes[static_cast<std::size_t>(id)];
      if (sched != nullptr && node.leaf_id >= 0) {
        sched->push_back(ScheduledLeaf{node.leaf_id, proc, t});
      }
      running.emplace(t + node.cost, id, proc);
    }
    auto [finish, id, proc] = running.top();
    running.pop();
    t = finish;
    idle_procs.push_back(proc);
    ++done;
    for (int s : dag.nodes[static_cast<std::size_t>(id)].succ) {
      if (--dag.nodes[static_cast<std::size_t>(s)].unmet == 0) ready.push(s);
    }
  }
  return t;
}

}  // namespace

double dag_makespan(const SPNode& root, int p) {
  FlatDag dag;
  dag.build(root);
  return run_greedy(dag, p, nullptr);
}

std::vector<ScheduledLeaf> dag_schedule(const SPNode& root, int p) {
  FlatDag dag;
  dag.build(root);
  std::vector<ScheduledLeaf> sched;
  run_greedy(dag, p, &sched);
  return sched;
}

}  // namespace gep
