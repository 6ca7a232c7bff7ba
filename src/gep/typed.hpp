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
// The engine is generic over an Invoker (sequential here; the
// work-stealing one lives in parallel/), a TileStore (row-major or
// Z-Morton; layout/zblocked.hpp) and a Problem supplying the pruning
// rule and the leaf kernel. Leaves are base-size tiles dispatched to the
// kernels in kernels.hpp — which themselves runtime-dispatch to the
// AVX2/FMA implementations in simd/ when the host supports them. The
// BoxKind matters for more than ordering: the di/dj flags each leaf
// derives from it tell the kernel wrappers when a tile is fully
// disjoint (D-kind, di == dj == false), which is what licenses routing
// GE/LU/MM leaves through the packed-panel GEMM (simd/gemm_leaf.hpp).
// Those D-kind leaves are in turn Strassen-eligible: gemm_tile[_scaled]
// consults simd/strassen.hpp first, so a leaf box whose edge clears
// strassen_min_m() (384 by default — i.e. a base size that large) runs
// the fused Strassen path with no changes here.
//
// Any n runs in place. The recursion covers the virtual power-of-two
// grid of bs-sized tiles (grid_side / leaf_side in matrix/matrix.hpp):
// it prunes every box whose i-, j- or k-range starts at or beyond n
// and hands each surviving leaf its extents clipped to the n x n
// matrix (LeafDims). A run over a matrix padded to the next power of
// two with Σ-neutral values (identity for GE/LU, +inf for FW, ...)
// performs the same in-range updates in the same order; the pruned
// ones were no-ops there. So the output is the padded run's, bit for
// bit, without the pad and unpad copies or the padded flops. (Unless
// the D leaves take Strassen: the padded run's leave rounding residue
// in the pad, so GE and LU then agree with it to rounding only; see
// docs/KERNELS.md, "Extents contract".)
#pragma once

#include <type_traits>

#include "gep/kernels.hpp"
#include "layout/zblocked.hpp"
#include "matrix/matrix.hpp"
#include "obs/obs.hpp"

namespace gep {

enum class BoxKind { A, B, C, D };

inline char box_kind_char(BoxKind k) {
  return "ABCD"[static_cast<int>(k)];
}

// Runs callables one after another (the unthreaded engine).
struct SeqInvoker {
  template <class... Fs>
  void invoke(Fs&&... fs) {
    (static_cast<Fs&&>(fs)(), ...);
  }
};

namespace detail {

// Per-kind leaf instrumentation (counters live in the global registry).
// The "updates" counters accumulate the mi·mj·mk update volume of each
// leaf box — the typed engine's work accounting, per recursion family.
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

// Default hint: the in-core engines pass nothing, and the if constexpr
// checks below make the hint plumbing compile away entirely for them.
struct NoHint {
  void operator()(index_t, index_t, index_t, index_t) const {}
};

inline std::uint64_t volume(const LeafDims& d) {
  return static_cast<std::uint64_t>(d.mi) * static_cast<std::uint64_t>(d.mj) *
         static_cast<std::uint64_t>(d.mk);
}

// Runs the box (i0, j0, k0) of side m of an n x n problem. Leaves are
// called as leaf(i0, j0, k0, LeafDims, kind).
template <class Inv, class Leaf, class Prune, class Hint = NoHint>
void typed_rec(Inv& inv, index_t n, index_t i0, index_t j0, index_t k0,
               index_t m, index_t bs, const Leaf& leaf, const Prune& prune,
               const Hint& hint = {}, int depth = 0) {
  if (outside(n, i0, j0, k0) || prune(i0, j0, k0, m)) return;
  const bool ik = (i0 == k0), jk = (j0 == k0);
  const BoxKind kind = ik ? (jk ? BoxKind::A : BoxKind::B)
                          : (jk ? BoxKind::C : BoxKind::D);
  // One relaxed atomic load when tracing is off; a recorded span when on.
  obs::ScopedSpan span(box_kind_char(kind), depth, i0, j0, k0, m);
  // Flight-recorder breadcrumb + stall-watchdog heartbeat: a wedged
  // worker's dump shows exactly which box it never left.
  obs::Watchdog::beat_this_thread();
  obs::FlightRecScope frec(box_kind_char(kind), depth,
                           static_cast<std::uint64_t>(m));
  if (m <= bs) {
    const LeafDims d = LeafDims::clipped(n, i0, j0, k0, m);
#if GEP_OBS
    TypedMetrics& tm = typed_metrics();
    const int ki = static_cast<int>(kind);
    tm.leaf_calls[ki].inc();
    tm.updates[ki].inc(volume(d));
#endif
    // Sampled hardware-counter attribution (obs/profile.hpp): brackets
    // every Nth leaf per thread when the LeafSampler is enabled; one
    // relaxed load otherwise.
    obs::ScopedLeafSample sample(box_kind_char(kind), m);
    leaf(i0, j0, k0, d, kind);
    return;
  }
  const index_t h = m / 2;
  const index_t ka = k0, kb = k0 + h;
  auto R = [&](index_t ii, index_t jj, index_t kk) {
    typed_rec(inv, n, ii, jj, kk, h, bs, leaf, prune, hint, depth + 1);
  };
  // Prefetch hook: announce the (ii,jj,kk,h) subtrees of the NEXT stage
  // just before the current stage runs, giving the async I/O worker one
  // stage of compute to hide the fault behind (hint receivers derive the
  // subtree's first-leaf tiles from these corner coordinates). Pruned
  // subtrees execute nothing, so hinting them would pollute the cache.
  auto H = [&](index_t ii, index_t jj, index_t kk) {
    if constexpr (!std::is_same_v<Hint, NoHint>) {
      if (!outside(n, ii, jj, kk) && !prune(ii, jj, kk, h)) {
        hint(ii, jj, kk, h);
      }
    }
  };
  if (ik && jk) {  // A (Fig. 6 top): A; par{B,C}; D — per k-half
    H(i0, j0 + h, ka);
    H(i0 + h, j0, ka);
    R(i0, j0, ka);
    H(i0 + h, j0 + h, ka);
    inv.invoke([&] { R(i0, j0 + h, ka); }, [&] { R(i0 + h, j0, ka); });
    H(i0 + h, j0 + h, kb);
    R(i0 + h, j0 + h, ka);
    H(i0 + h, j0, kb);
    H(i0, j0 + h, kb);
    R(i0 + h, j0 + h, kb);
    H(i0, j0, kb);
    inv.invoke([&] { R(i0 + h, j0, kb); }, [&] { R(i0, j0 + h, kb); });
    R(i0, j0, kb);
  } else if (ik) {  // B: row panels share U; columns split
    H(i0 + h, j0, ka);
    H(i0 + h, j0 + h, ka);
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0, j0 + h, ka); });
    H(i0 + h, j0, kb);
    H(i0 + h, j0 + h, kb);
    inv.invoke([&] { R(i0 + h, j0, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    H(i0, j0, kb);
    H(i0, j0 + h, kb);
    inv.invoke([&] { R(i0 + h, j0, kb); }, [&] { R(i0 + h, j0 + h, kb); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0, j0 + h, kb); });
  } else if (jk) {  // C: column panels share V; rows split
    H(i0, j0 + h, ka);
    H(i0 + h, j0 + h, ka);
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0 + h, j0, ka); });
    H(i0, j0 + h, kb);
    H(i0 + h, j0 + h, kb);
    inv.invoke([&] { R(i0, j0 + h, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    H(i0, j0, kb);
    H(i0 + h, j0, kb);
    inv.invoke([&] { R(i0, j0 + h, kb); }, [&] { R(i0 + h, j0 + h, kb); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0 + h, j0, kb); });
  } else {  // D: fully disjoint; each k-half is one parallel stage
    H(i0, j0, kb);
    H(i0, j0 + h, kb);
    H(i0 + h, j0, kb);
    H(i0 + h, j0 + h, kb);
    inv.invoke([&] { R(i0, j0, ka); }, [&] { R(i0, j0 + h, ka); },
               [&] { R(i0 + h, j0, ka); }, [&] { R(i0 + h, j0 + h, ka); });
    inv.invoke([&] { R(i0, j0, kb); }, [&] { R(i0, j0 + h, kb); },
               [&] { R(i0 + h, j0, kb); }, [&] { R(i0 + h, j0 + h, kb); });
  }
}

// Matrix multiplication C += A·B is I-GEP's D function over three
// disjoint matrices; both k-halves of every level are single parallel
// stages, giving span O(n) (end of Section 3). Leaves are called as
// leaf(i0, j0, k0, LeafDims).
template <class Inv, class Leaf, class Hint = NoHint>
void mm_rec(Inv& inv, index_t n, index_t i0, index_t j0, index_t k0,
            index_t m, index_t bs, const Leaf& leaf, const Hint& hint = {},
            int depth = 0) {
  if (outside(n, i0, j0, k0)) return;
  obs::ScopedSpan span('D', depth, i0, j0, k0, m);
  obs::Watchdog::beat_this_thread();
  obs::FlightRecScope frec('D', depth, static_cast<std::uint64_t>(m));
  if (m <= bs) {
    const LeafDims d = LeafDims::clipped(n, i0, j0, k0, m);
#if GEP_OBS
    static obs::Counter calls = obs::counter("typed.mm.leaf_calls");
    static obs::Counter upd = obs::counter("typed.mm.updates");
    calls.inc();
    upd.inc(volume(d));
#endif
    obs::ScopedLeafSample sample('D', m);
    leaf(i0, j0, k0, d);
    return;
  }
  const index_t h = m / 2;
  auto R = [&](index_t ii, index_t jj, index_t kk) {
    mm_rec(inv, n, ii, jj, kk, h, bs, leaf, hint, depth + 1);
  };
  // Same one-stage-ahead prefetch hook as typed_rec (only the out-of-
  // core engine hints, and its n is a power of two: nothing prunes).
  if constexpr (!std::is_same_v<Hint, NoHint>) {
    hint(i0, j0, k0 + h, h);
    hint(i0, j0 + h, k0 + h, h);
    hint(i0 + h, j0, k0 + h, h);
    hint(i0 + h, j0 + h, k0 + h, h);
  }
  for (index_t kk : {k0, k0 + h}) {
    inv.invoke([&] { R(i0, j0, kk); }, [&] { R(i0, j0 + h, kk); },
               [&] { R(i0 + h, j0, kk); }, [&] { R(i0 + h, j0 + h, kk); });
  }
}

}  // namespace detail

// --- Problem drivers -------------------------------------------------------

// Every driver below runs any n in place. Its store's tiles are
// leaf_side(base_size, n) wide: RowMajorStore{data, n, that side} views
// the caller's n x n matrix as it is.
struct TypedOptions {
  index_t base_size = 64;  // paper: best 64 (Opteron) / 128 (Xeon)
};

// Floyd-Warshall over a TileStore. Σ is the full cube: nothing prunes.
template <class Inv, class Store>
void igep_floyd_warshall(Inv& inv, const Store& st, index_t n,
                         TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d, BoxKind) {
    T* x = st.tile(i0 / bs, j0 / bs);
    const T* u = st.tile(i0 / bs, k0 / bs);
    const T* v = st.tile(k0 / bs, j0 / bs);
    kernel_fw(x, u, v, d, s, s, s);
  };
  auto prune = [](index_t, index_t, index_t, index_t) { return false; };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// Floyd-Warshall with successor tracking: dst holds distances, sst the
// successor (next hop) indices; both advance in lockstep.
template <class Inv, class StoreD, class StoreS>
void igep_floyd_warshall_paths(Inv& inv, const StoreD& dst, const StoreS& sst,
                               index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-fw-paths");
  using T = std::remove_reference_t<decltype(dst.tile(0, 0)[0])>;
  using I = std::remove_reference_t<decltype(sst.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = dst.tile_stride();
  const index_t ss = sst.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d, BoxKind) {
    T* x = dst.tile(i0 / bs, j0 / bs);
    const T* u = dst.tile(i0 / bs, k0 / bs);
    const T* v = dst.tile(k0 / bs, j0 / bs);
    I* xs = sst.tile(i0 / bs, j0 / bs);
    const I* us = sst.tile(i0 / bs, k0 / bs);
    kernel_fw_paths(x, u, v, xs, us, d, s, s, s, ss, ss);
  };
  auto prune = [](index_t, index_t, index_t, index_t) { return false; };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// Maximum-capacity (bottleneck) paths over a TileStore.
template <class Inv, class Store>
void igep_bottleneck(Inv& inv, const Store& st, index_t n,
                     TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-bottleneck");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d, BoxKind) {
    T* x = st.tile(i0 / bs, j0 / bs);
    const T* u = st.tile(i0 / bs, k0 / bs);
    const T* v = st.tile(k0 / bs, j0 / bs);
    kernel_bottleneck(x, u, v, d, s, s, s);
  };
  auto prune = [](index_t, index_t, index_t, index_t) { return false; };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// Transitive closure (boolean or-and Floyd-Warshall) over a TileStore.
template <class Inv, class Store>
void igep_transitive_closure(Inv& inv, const Store& st, index_t n,
                             TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-tc");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d, BoxKind) {
    T* x = st.tile(i0 / bs, j0 / bs);
    const T* u = st.tile(i0 / bs, k0 / bs);
    const T* v = st.tile(k0 / bs, j0 / bs);
    kernel_tc(x, u, v, d, s, s, s);
  };
  auto prune = [](index_t, index_t, index_t, index_t) { return false; };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// Gaussian elimination without pivoting (Σ: k < i && k < j).
template <class Inv, class Store>
void igep_gaussian(Inv& inv, const Store& st, index_t n,
                   TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-ge");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                  BoxKind kind) {
    T* x = st.tile(i0 / bs, j0 / bs);
    const T* u = st.tile(i0 / bs, k0 / bs);
    const T* v = st.tile(k0 / bs, j0 / bs);
    const T* w = st.tile(k0 / bs, k0 / bs);
    const bool di = (kind == BoxKind::A || kind == BoxKind::B);
    const bool dj = (kind == BoxKind::A || kind == BoxKind::C);
    kernel_ge(x, u, v, w, d, s, s, s, s, di, dj);
  };
  // Aligned ranges are equal or disjoint, so Σ misses the box iff the
  // i-range or the j-range lies strictly below the k-range.
  auto prune = [](index_t i0, index_t j0, index_t k0, index_t) {
    return i0 < k0 || j0 < k0;
  };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// LU decomposition without pivoting (Σ: k < i && k <= j); multipliers are
// stored in the strictly lower triangle.
template <class Inv, class Store>
void igep_lu(Inv& inv, const Store& st, index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-lu");
  using T = std::remove_reference_t<decltype(st.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t s = st.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d,
                  BoxKind kind) {
    T* x = st.tile(i0 / bs, j0 / bs);
    const T* u = st.tile(i0 / bs, k0 / bs);
    const T* v = st.tile(k0 / bs, j0 / bs);
    const T* w = st.tile(k0 / bs, k0 / bs);
    const bool di = (kind == BoxKind::A || kind == BoxKind::B);
    const bool dj = (kind == BoxKind::A || kind == BoxKind::C);
    kernel_lu(x, u, v, w, d, s, s, s, s, di, dj);
  };
  auto prune = [](index_t i0, index_t j0, index_t k0, index_t) {
    return i0 < k0 || j0 < k0;
  };
  detail::typed_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf, prune);
}

// C += A·B with A, B, C in separate tile stores.
template <class Inv, class StoreC, class StoreA, class StoreB>
void igep_matmul(Inv& inv, const StoreC& cst, const StoreA& ast,
                 const StoreB& bst, index_t n, TypedOptions opts = {}) {
  obs::WatchdogThreadSource wd_src("igep-mm");
  using T = std::remove_reference_t<decltype(cst.tile(0, 0)[0])>;
  const index_t bs = leaf_side(opts.base_size, n);
  const index_t sc = cst.tile_stride();
  const index_t sa = ast.tile_stride();
  const index_t sb = bst.tile_stride();
  auto leaf = [&](index_t i0, index_t j0, index_t k0, LeafDims d) {
    T* x = cst.tile(i0 / bs, j0 / bs);
    const T* a = ast.tile(i0 / bs, k0 / bs);
    const T* b = bst.tile(k0 / bs, j0 / bs);
    kernel_mm(x, a, b, d, sc, sa, sb);
  };
  detail::mm_rec(inv, n, 0, 0, 0, grid_side(n, bs), bs, leaf);
}

}  // namespace gep
