#include "parallel/dag_sim.hpp"

#include <utility>

#include "gep/typed.hpp"

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

// Records detail::typed_rec's schedule as an SPNode tree: each
// invoke(fs...) of the node being recorded is one stage, each f one
// child. A child whose box prunes records nothing and is dropped.
struct Recorder {
  using Scope = NoScope;
  SPNode* node;       // the node the running typed_rec call fills
  bool live = false;  // the last child ran a leaf or a stage

  template <class... Fs>
  void invoke(Fs&&... fs) {
    std::vector<SPNode> stage;
    stage.reserve(sizeof...(Fs));
    (child(stage, fs), ...);
    if (!stage.empty()) node->stages.push_back(std::move(stage));
    live = true;
  }

  template <class F>
  void child(std::vector<SPNode>& stage, F& f) {
    SPNode* parent = std::exchange(node, &stage.emplace_back());
    live = false;
    f();
    node = parent;
    if (!live) stage.pop_back();
  }
};

struct FlatNode {
  double cost = 0;
  int leaf_id = -1;
  int preds = 0;
  std::vector<int> succ;
};

// The SPNode tree as a flat DAG for greedy_schedule; node ids follow
// the sequential DFS order.
struct FlatDag {
  std::vector<FlatNode> nodes;

  int size() const { return static_cast<int>(nodes.size()); }
  const FlatNode& node(int id) const {
    return nodes[static_cast<std::size_t>(id)];
  }
  double cost(int id) const { return node(id).cost; }
  int pred_count(int id) const { return node(id).preds; }
  const std::vector<int>& successors(int id) const { return node(id).succ; }

  int add(double cost, int leaf_id = -1) {
    nodes.push_back(FlatNode{cost, leaf_id, 0, {}});
    return static_cast<int>(nodes.size()) - 1;
  }
  void edge(int from, int to) {
    nodes[static_cast<std::size_t>(from)].succ.push_back(to);
    nodes[static_cast<std::size_t>(to)].preds += 1;
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
  SPNode root;
  if (n <= 0) return root;
  const index_t bs = leaf_side(base, n);
  Recorder rec{&root};
  detail::typed_rec(rec, prob, n, 0, 0, 0, grid_side(n, bs), bs,
                    [&](const BlockTask& t) {
                      rec.live = true;
                      SPNode& leaf = *rec.node;
                      leaf.cost = leaf_cost(
                          prob, LeafDims::clipped(n, t.i0, t.j0, t.k0, t.m),
                          detail::diag_i(t.kind), detail::diag_j(t.kind));
                      if (boxes != nullptr) {
                        leaf.leaf_id = static_cast<int>(boxes->size());
                        boxes->push_back(LeafBox{t.i0, t.j0, t.k0, t.m});
                      }
                    });
  return root;
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

double dag_makespan(const SPNode& root, int p) {
  FlatDag dag;
  dag.build(root);
  // DFS priority (node ids are assigned in DFS order) makes this a PDF
  // (parallel depth-first) schedule: with p = 1 it reduces to the
  // sequential execution order, the property Lemma 3.2 builds on.
  return greedy_schedule(dag, p, std::less<int>(), [](int, int, double) {});
}

std::vector<ScheduledLeaf> dag_schedule(const SPNode& root, int p) {
  FlatDag dag;
  dag.build(root);
  std::vector<ScheduledLeaf> sched;
  greedy_schedule(dag, p, std::less<int>(),
                  [&](int id, int proc, double t) {
                    const int leaf = dag.node(id).leaf_id;
                    if (leaf >= 0) sched.push_back(ScheduledLeaf{leaf, proc, t});
                  });
  return sched;
}

}  // namespace gep
