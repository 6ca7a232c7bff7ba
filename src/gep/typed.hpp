// Typed I-GEP — the production engine (paper Figs. 4, 5, 6, 13, 14).
//
// I-GEP's recursive calls fall into four families by how the i/j/k
// intervals overlap: A (I = J = K), B (I = K), C (J = K), D (disjoint).
// Less overlap means fewer ordering constraints: within one call,
//   A: 6 stages  seq{ A, par{B,C}, D }  per k-half,
//   B: 4 stages  par{B,B}; par{D,D}  per k-half,
//   C: 4 stages  par{C,C}; par{D,D}  per k-half,
//   D: 2 stages  par{D,D,D,D}        per k-half.
// Executed sequentially this is exactly Fig. 4/5; executed with a
// fork-join invoker it is the multithreaded I-GEP of Fig. 6 with span
// O(n log² n) (Theorem 3.1).
//
// Matrix multiplication is the same recursion with every box D-kind
// (span O(n), end of Section 3).
//
// This header is the recursion itself, generic over an Invoker and a
// leaf, and the only statement of these stage lists; the one prune rule
// is prunes() (parallel/dag_sim.hpp). Every consumer of the schedule
// reads it through an Invoker: WsParInvoker runs it (fork-join, Fig. 6;
// sequential without a pool), SeqInvoker streams its leaves in order
// (the task-graph emitter, traced cache replays), and dag_sim's
// recorder turns its stages into the Fig. 12 simulator's DAG. The
// problem drivers (igep_floyd_warshall, igep_lu, ...) live in
// parallel/task_graph.hpp: each runs its one leaf body either through
// this recursion under WsParInvoker (Runtime::ForkJoin) or as the task
// graph the same recursion emits (Runtime::Dag, the default); run_leaf
// instruments a leaf the same way in both. Their TileStores are row-major or
// Z-Morton (layout/zblocked.hpp). Leaves are base-size tiles dispatched
// to the kernels in kernels.hpp — which themselves runtime-dispatch to the
// AVX2/FMA implementations in simd/ when the host supports them. The
// BoxKind matters for more than ordering: the di/dj flags each leaf
// derives from it tell the kernel wrappers when a tile is fully
// disjoint (D-kind, di == dj == false), which is what licenses routing
// GE/LU/MM leaves through the packed-panel GEMM (simd/gemm_leaf.hpp).
//
// Any n runs in place. The recursion covers the virtual power-of-two
// grid of bs-sized tiles (grid_side / leaf_side in matrix/matrix.hpp):
// it prunes every box whose i-, j- or k-range starts at or beyond n
// and hands each surviving leaf its extents clipped to the n x n
// matrix (LeafDims). A run over a matrix padded to the next power of
// two with Σ-neutral values (identity for GE/LU, +inf for FW, ...)
// performs the same in-range updates in the same order; the pruned
// ones were no-ops there. So the output is the padded run's, bit for
// bit, without the pad and unpad copies or the padded flops (see
// docs/KERNELS.md, "Extents contract").
#pragma once

#include "gep/kernels.hpp"
#include "layout/zblocked.hpp"
#include "matrix/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/dag_sim.hpp"

namespace gep {

enum class BoxKind { A, B, C, D };

inline char box_kind_char(BoxKind k) {
  return "ABCD"[static_cast<int>(k)];
}

// One base-case box of the recursion: what typed_rec hands its leaf,
// and, priced, one task of the task graph (parallel/task_graph.hpp).
struct BlockTask {
  BoxKind kind = BoxKind::D;
  index_t i0 = 0, j0 = 0, k0 = 0, m = 0;  // element coords, box side
  int depth = 0;                          // recursion depth of the leaf
  double cost = 0;  // update count (dag_sim costs); 0 from typed_rec
};

// The per-node guard of an invoker that only records the recursion.
struct NoScope {
  template <class... A>
  explicit NoScope(const A&...) {}
};

// Runs every stage's calls in order and instruments nothing: the
// sequential schedule as a plain stream of leaves, for consumers that
// record the recursion rather than run it (the task-graph emitter,
// traced cache replays).
struct SeqInvoker {
  using Scope = NoScope;
  template <class... Fs>
  void invoke(Fs&&... fs) {
    (static_cast<Fs&&>(fs)(), ...);
  }
};

namespace detail {

// Per-kind leaf instrumentation (counters live in the global registry).
// The "updates" counters accumulate the mi·mj·mk update volume of each
// leaf box — the typed engine's work accounting, per recursion family
// (matrix multiplication bills typed.mm.* instead, in run_leaf).
// Preprocessor-guarded rather than if constexpr: with GEP_OBS=0 these
// names must not exist at all, so a GEP_OBS=0 translation unit can link
// against GEP_OBS=1 libraries without two same-named inline definitions
// whose obs::Counter members resolve to different types (an ODR trap).
#if GEP_OBS
struct TypedMetrics {
  obs::Counter leaf_calls[4];
  obs::Counter updates[4];
};
inline TypedMetrics& typed_metrics() {
  static TypedMetrics m{
      {obs::counter("typed.leaf_calls.A"), obs::counter("typed.leaf_calls.B"),
       obs::counter("typed.leaf_calls.C"), obs::counter("typed.leaf_calls.D")},
      {obs::counter("typed.updates.A"), obs::counter("typed.updates.B"),
       obs::counter("typed.updates.C"), obs::counter("typed.updates.D")}};
  return m;
}
#endif

inline std::uint64_t volume(const LeafDims& d) {
  return static_cast<std::uint64_t>(d.mi) * static_cast<std::uint64_t>(d.mj) *
         static_cast<std::uint64_t>(d.mk);
}

// The di/dj diagonal flags GE/LU leaves derive from their kind.
inline bool diag_i(BoxKind k) { return k == BoxKind::A || k == BoxKind::B; }
inline bool diag_j(BoxKind k) { return k == BoxKind::A || k == BoxKind::C; }

// Runs one leaf of an n x n problem with its instrumentation, the same
// under either schedule (typed_rec's fork-join leaves, run_task_graph's
// tasks): the node scope, the typed.* work counters, and the sampled
// hardware-counter bracket around body().
template <class Body>
void run_leaf(DagProblem prob, index_t n, const BlockTask& t,
              const Body& body) {
  const char kc = box_kind_char(t.kind);
  obs::NodeScope scope(kc, t.depth, t.i0, t.j0, t.k0, t.m);
#if GEP_OBS
  const std::uint64_t vol =
      volume(LeafDims::clipped(n, t.i0, t.j0, t.k0, t.m));
  if (prob == DagProblem::MatMul) {
    static obs::Counter calls = obs::counter("typed.mm.leaf_calls");
    static obs::Counter upd = obs::counter("typed.mm.updates");
    calls.inc();
    upd.inc(vol);
  } else {
    TypedMetrics& tm = typed_metrics();
    const int ki = static_cast<int>(t.kind);
    tm.leaf_calls[ki].inc();
    tm.updates[ki].inc(vol);
  }
#else
  (void)prob;
  (void)n;
#endif
  // Sampled hardware-counter attribution (obs/profile.hpp): brackets
  // every Nth leaf per thread when the LeafSampler is enabled; one
  // relaxed load otherwise.
  obs::ScopedLeafSample sample(kc, t.m);
  body();
}

// Runs the box (i0, j0, k0) of side m of an n x n problem, pruned by
// prunes(prob, ...): the one statement of Fig. 6's stage lists. Each
// inv.invoke(fs...) is one stage whose calls may run in parallel; A's
// sequential steps are one-call stages. Every inner node holds an
// `Inv::Scope` (kind, depth, i0, j0, k0, m) while it runs. Leaves are
// called as leaf(BlockTask) with cost 0.
template <class Inv, class Leaf>
void typed_rec(Inv& inv, DagProblem prob, index_t n, index_t i0, index_t j0,
               index_t k0, index_t m, index_t bs, const Leaf& leaf,
               int depth = 0) {
  if (prunes(prob, n, i0, j0, k0)) return;
  // Matrix multiplication's three matrices are disjoint: every box is D.
  const bool mm = prob == DagProblem::MatMul;
  const bool ik = !mm && i0 == k0, jk = !mm && j0 == k0;
  const BoxKind kind = ik ? (jk ? BoxKind::A : BoxKind::B)
                          : (jk ? BoxKind::C : BoxKind::D);
  if (m <= bs) {
    leaf(BlockTask{kind, i0, j0, k0, m, depth});
    return;
  }
  [[maybe_unused]] typename Inv::Scope scope(box_kind_char(kind), depth, i0,
                                             j0, k0, m);
  const index_t h = m / 2;
  const index_t ka = k0, kb = k0 + h;
  auto R = [&](index_t ii, index_t jj, index_t kk) {
    typed_rec(inv, prob, n, ii, jj, kk, h, bs, leaf, depth + 1);
  };
  if (ik && jk) {  // A (Fig. 6 top): A; par{B,C}; D — per k-half
    inv.invoke([&] { R(i0, j0, ka); });
    inv.invoke([&] { R(i0, j0 + h, ka); }, [&] { R(i0 + h, j0, ka); });
    inv.invoke([&] { R(i0 + h, j0 + h, ka); });
    inv.invoke([&] { R(i0 + h, j0 + h, kb); });
    inv.invoke([&] { R(i0 + h, j0, kb); }, [&] { R(i0, j0 + h, kb); });
    inv.invoke([&] { R(i0, j0, kb); });
  } else if (ik) {  // B: row panels share U; columns split
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0, j0 + h, ka); });
    inv.invoke([&] { R(i0 + h, j0, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    inv.invoke([&] { R(i0 + h, j0, kb); }, [&] { R(i0 + h, j0 + h, kb); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0, j0 + h, kb); });
  } else if (jk) {  // C: column panels share V; rows split
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0 + h, j0, ka); });
    inv.invoke([&] { R(i0, j0 + h, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    inv.invoke([&] { R(i0, j0 + h, kb); }, [&] { R(i0 + h, j0 + h, kb); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0 + h, j0, kb); });
  } else {  // D: fully disjoint; each k-half is one parallel stage
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0, j0 + h, ka); },
               [&] { R(i0 + h, j0, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0, j0 + h, kb); },
               [&] { R(i0 + h, j0, kb); }, [&] { R(i0 + h, j0 + h, kb); });
  }
}

}  // namespace detail

}  // namespace gep
