// H — C-GEP, the fully general cache-oblivious GEP (paper Fig. 3).
//
// Same recursion as I-GEP, but each update reads its c[i,k], c[k,j] and
// c[k,k] operands from saved snapshots (u0, u1, v0, v1) that hold exactly
// the states the iterative G would have seen (Table 1, column G):
//
//   u0[i,j] = c[i,j] after update <i,j,τ_ij(j-1)>   (read as u0[i,k], j<=k)
//   u1[i,j] = c[i,j] after update <i,j,τ_ij(j)>     (read as u1[i,k], j>k)
//   v0[i,j] = c[i,j] after update <i,j,τ_ij(i-1)>   (read as v0[k,j], i<=k)
//   v1[i,j] = c[i,j] after update <i,j,τ_ij(i)>     (read as v1[k,j], i>k)
//   w reads u0/u1[k,k] selected by (i>k) || (i==k && j>k).
//
// This makes H ≡ G for EVERY f and Σ_G, at the cost of 4n² extra cells.
//
// Any n runs in place: the recursion covers the virtual next_pow2(n)
// cube, prunes every box that starts at or beyond n and clips the rest
// to the matrix (LeafDims::clipped), as the typed engine does. That is
// H on the padded matrix with Σ_G restricted to [0, n)³, so H ≡ G holds.
//
// The reduced-space variant (run_cgep_compact) exploits that during the
// k-half [k1,k2] only u-columns and v-rows in [k1,k2] are ever read, and
// that at the half boundary every needed save with index >= k2 equals the
// *current* value of c (no update lies strictly between τ and the
// boundary, by maximality of τ). It therefore keeps only half-width
// slices (2n² extra) and re-initializes them between the two top-level
// k-phases — the paper's TR variant pushes the same idea to n²+n cells;
// see DESIGN.md §4(5). Both variants are validated against G on random
// (f, Σ_G) instances where I-GEP provably fails.
#pragma once

#include <algorithm>
#include <vector>

#include "gep/access.hpp"
#include "gep/functors.hpp"
#include "gep/igep.hpp"
#include "gep/typed.hpp"
#include "gep/update_set.hpp"

namespace gep {

struct CGepOptions {
  index_t base_size = 1;
};

namespace detail {

// Store concept: rectangular get/set in slice-local coordinates.
template <class Acc, class AuxU, class AuxV, class F, class S, class Hook>
class CGepEngine {
 public:
  CGepEngine(Acc& c, AuxU& u0, AuxU& u1, AuxV& v0, AuxV& v1, const F& f,
             const S& sigma, Hook* hook, index_t kbase, index_t kwidth,
             index_t base)
      : c_(c), u0_(u0), u1_(u1), v0_(v0), v1_(v1), f_(f), sigma_(sigma),
        hook_(hook), n_(c.n()), kbase_(kbase), kwidth_(kwidth), base_(base) {
    // The w operand only ever reads u0/u1 at diagonal cells (k,k); two
    // length-kwidth vectors (the "+n" of the paper's reduced variant)
    // serve those reads without touching the snapshot matrices. At
    // construction c holds the correct snapshot for every diagonal cell
    // in [kbase, kbase+kwidth) (initial matrix for full H; the phase
    // boundary state for the compact variant, by the τ-maximality
    // argument in run_cgep_compact_with_aux).
    d0_.resize(static_cast<std::size_t>(kwidth));
    d1_.resize(static_cast<std::size_t>(kwidth));
    for (index_t t = 0; t < kwidth; ++t) {
      auto v = c_.get(kbase + t, kbase + t);
      d0_[static_cast<std::size_t>(t)] = v;
      d1_[static_cast<std::size_t>(t)] = v;
    }
  }

  void rec(index_t i0, index_t j0, index_t k0, index_t m) {
    if (i0 >= n_ || j0 >= n_ || k0 >= n_) return;
    const LeafDims d = LeafDims::clipped(n_, i0, j0, k0, m);
    if (!sigma_.intersects_box(i0, i0 + d.mi - 1, j0, j0 + d.mj - 1, k0,
                               k0 + d.mk - 1))
      return;
    if (m <= base_) {
      box_kernel(i0, j0, k0, m);
      return;
    }
    const index_t h = m / 2;
    const index_t k2 = k0 + h;
    rec(i0, j0, k0, h);
    rec(i0, j0 + h, k0, h);
    rec(i0 + h, j0, k0, h);
    rec(i0 + h, j0 + h, k0, h);
    rec(i0 + h, j0 + h, k2, h);
    rec(i0 + h, j0, k2, h);
    rec(i0, j0 + h, k2, h);
    rec(i0, j0, k2, h);
  }

  // Iterative kernel over a box, clipped to the matrix. Operand cells
  // inside the box's own I x J region are read live (G's k/i/j order
  // makes the live value exactly the state Table 1 column G prescribes);
  // all other operands come from the saved snapshots. With base == 1
  // this is literally Fig. 3 line 4 (the live/saved distinction
  // coincides).
  //
  // The operand selectors (u0 vs u1 etc.) depend on j and i only through
  // the comparisons j <= k and i <= k, so the j-loop is split at j = k
  // and the u/w sources hoisted per segment — the same updates in the
  // same order, with the ternaries lifted out of the inner loop.
  void box_kernel(index_t i0, index_t j0, index_t k0, index_t m) {
    const LeafDims d = LeafDims::clipped(n_, i0, j0, k0, m);
    const bool u_live = (j0 == k0);
    const bool v_live = (i0 == k0);
    const bool w_live = u_live && v_live;
    const index_t jend = j0 + d.mj;
    for (index_t k = k0; k < k0 + d.mk; ++k) {
      for (index_t i = i0; i < i0 + d.mi; ++i) {
        // v source and (for i != k) w source are j-invariant.
        const bool i_gt_k = i > k;
        // Segment 1: j <= k (u0/u0-flavored); segment 2: j > k.
        const index_t jsplit = std::clamp(k + 1, j0, jend);
        run_segment(i, k, j0, jsplit, /*j_gt_k=*/false, u_live, v_live,
                    w_live, i_gt_k);
        run_segment(i, k, jsplit, jend, /*j_gt_k=*/true, u_live, v_live,
                    w_live, i_gt_k);
      }
    }
  }

  void run_segment(index_t i, index_t k, index_t jlo, index_t jhi,
                   bool j_gt_k, bool u_live, bool v_live, bool w_live,
                   bool i_gt_k) {
    using T = typename Acc::value_type;
    if (jlo >= jhi) return;
    // Hoisted u source (value still depends on j only when live, since
    // the live cell IS (i,k) — constant across the segment either way).
    const T u_saved = u_live ? T{} : (j_gt_k ? u1_ : u0_).get(i, k - kbase_);
    const bool w_from_u1 = i_gt_k || (i == k && j_gt_k);
    const T w_val =
        w_live ? c_.get(k, k)
               : (w_from_u1 ? d1_ : d0_)[static_cast<std::size_t>(k - kbase_)];
    for (index_t j = jlo; j < jhi; ++j) {
      if (!sigma_.contains(i, j, k)) continue;
      if (hook_) hook_->on_update(i, j, k);
      T x = c_.get(i, j);
      T u = u_live ? c_.get(i, k) : u_saved;
      T v = v_live ? c_.get(k, j)
                   : (i_gt_k ? v1_ : v0_).get(k - kbase_, j);
      T w = w_live ? c_.get(k, k) : w_val;
      T y = apply_f(f_, x, u, v, w, i, j, k);
      c_.set(i, j, y);
      save(i, j, k, y);
    }
  }

 private:
  // Fig. 3 lines 5-8: snapshot c[i,j] right after the update that leaves
  // it in state τ_ij(j-1) / τ_ij(j) / τ_ij(i-1) / τ_ij(i).
  // k == τ_ij(l)  <=>  k <= l && next_k(i,j,k) > l.
  void save(index_t i, index_t j, index_t k, typename Acc::value_type y) {
    const index_t nk = sigma_.next_k(i, j, k);
    if (j >= kbase_ && j < kbase_ + kwidth_) {
      if (k <= j - 1 && nk > j - 1) {
        u0_.set(i, j - kbase_, y);
        if (i == j) d0_[static_cast<std::size_t>(j - kbase_)] = y;
      }
      if (k <= j && nk > j) {
        u1_.set(i, j - kbase_, y);
        if (i == j) d1_[static_cast<std::size_t>(j - kbase_)] = y;
      }
    }
    if (i >= kbase_ && i < kbase_ + kwidth_) {
      if (k <= i - 1 && nk > i - 1) v0_.set(i - kbase_, j, y);
      if (k <= i && nk > i) v1_.set(i - kbase_, j, y);
    }
  }

  Acc& c_;
  AuxU& u0_;
  AuxU& u1_;
  AuxV& v0_;
  AuxV& v1_;
  std::vector<typename Acc::value_type> d0_, d1_;  // diagonal snapshots
  const F& f_;
  const S& sigma_;
  Hook* hook_;
  index_t n_;  // matrix side; boxes clip to it
  index_t kbase_;
  index_t kwidth_;
  index_t base_;
};

}  // namespace detail

// C-GEP with caller-supplied auxiliary stores (each must behave as an
// n x n snapshot of c's initial contents). Used directly by the
// out-of-core engine, which supplies disk-backed auxiliaries.
template <Accessor Acc, class AuxU, class AuxV, class F, UpdateSet S,
          class Hook = NoHook>
void run_cgep_with_aux(Acc& c, AuxU& u0, AuxU& u1, AuxV& v0, AuxV& v1,
                       const F& f, const S& sigma, CGepOptions opts = {},
                       Hook* hook = nullptr) {
  const index_t n = c.n();
  detail::CGepEngine<Acc, AuxU, AuxV, F, S, Hook> eng(
      c, u0, u1, v0, v1, f, sigma, hook, /*kbase=*/0, /*kwidth=*/n,
      std::max<index_t>(1, opts.base_size));
  eng.rec(0, 0, 0, next_pow2(n));
}

// C-GEP, 4n²-space variant: allocates the four snapshot matrices.
template <class T, class F, UpdateSet S, class Hook = NoHook>
void run_cgep(Matrix<T>& c, const F& f, const S& sigma, CGepOptions opts = {},
              Hook* hook = nullptr) {
  Matrix<T> u0(c), u1(c), v0(c), v1(c);
  DirectAccess<T> ca(c.view()), a0(u0.view()), a1(u1.view()), b0(v0.view()),
      b1(v1.view());
  run_cgep_with_aux(ca, a0, a1, b0, b1, f, sigma, opts, hook);
}

// Multithreaded C-GEP (4n²-space) driven by a fork-join Invoker (see
// parallel/work_stealing.hpp's WsParInvoker; without a pool it stages
// sequentially). Paper Section 3: the Fig. 6 staging applies to H
// unchanged ("a similar parallel algorithm with the same parallel time
// bound applies to C-GEP"), so this is typed_rec's full-cube recursion
// (gep/typed.hpp) with box_kernel as its leaf: T_p = O(n³/p + n log² n),
// as for parallel I-GEP. Safe because parallel boxes within a stage have
// disjoint X regions and snapshot writes target only the updated cell's
// own slot, so all concurrent writes are disjoint. Each leaf runs
// through rec, which prunes and clips it as the sequential run does.
template <class Inv, class T, class F, UpdateSet S>
void run_cgep_parallel(Inv& inv, Matrix<T>& c, const F& f, const S& sigma,
                       CGepOptions opts = {}) {
  const index_t n = c.rows();
  assert(c.cols() == n);
  const index_t base = std::max<index_t>(1, opts.base_size);
  Matrix<T> u0(c), u1(c), v0(c), v1(c);
  DirectAccess<T> ca(c.view()), a0(u0.view()), a1(u1.view()), b0(v0.view()),
      b1(v1.view());
  detail::CGepEngine<DirectAccess<T>, DirectAccess<T>, DirectAccess<T>, F, S,
                     NoHook>
      eng(ca, a0, a1, b0, b1, f, sigma, nullptr, /*kbase=*/0, /*kwidth=*/n,
          base);
  detail::typed_rec(
      inv, DagProblem::FloydWarshall, n, 0, 0, 0, next_pow2(n), base,
      [&](const BlockTask& t) { eng.rec(t.i0, t.j0, t.k0, t.m); });
}

// The compact variant's k split: half the virtual 2^q cube, and 1 at
// n = 1 (the second phase is then empty).
inline index_t cgep_compact_half(index_t n) {
  return std::max<index_t>(1, next_pow2(n) / 2);
}

// C-GEP, reduced-space variant over caller-supplied slice stores: with
// h = cgep_compact_half(n), u0/u1 must behave as n x h stores, v0/v1 as
// h x n stores (any Accessor-like get/set object — in-core matrices or
// OocMatrix slices). The top-level k-halves are [0, h) and [h, n); the
// engine re-initializes the slices from c between them: at the phase
// boundary every update with k < h has been applied and none with
// k >= h, so for any save index l >= h-1 the needed snapshot
// c_{τ_ij(l)} equals the current c (no update of cell (i,j) lies in
// (τ_ij(l), l] ⊇ (τ_ij(l), h-1], by maximality of τ).
template <Accessor Acc, class AuxU, class AuxV, class F, UpdateSet S,
          class Hook = NoHook>
void run_cgep_compact_with_aux(Acc& c, AuxU& u0, AuxU& u1, AuxV& v0,
                               AuxV& v1, const F& f, const S& sigma,
                               CGepOptions opts = {}, Hook* hook = nullptr) {
  using T = typename Acc::value_type;
  const index_t n = c.n();
  const index_t h = cgep_compact_half(n);
  const index_t base = std::max<index_t>(1, opts.base_size);

  auto load_slices = [&](index_t kbase, index_t width) {
    for (index_t i = 0; i < n; ++i) {
      for (index_t kk = 0; kk < width; ++kk) {
        T val = c.get(i, kbase + kk);
        u0.set(i, kk, val);
        u1.set(i, kk, val);
      }
    }
    for (index_t kk = 0; kk < width; ++kk) {
      for (index_t j = 0; j < n; ++j) {
        T val = c.get(kbase + kk, j);
        v0.set(kk, j, val);
        v1.set(kk, j, val);
      }
    }
  };

  // Phase 1: k in [0, h). Slice values start at c's initial state, which
  // is the correct snapshot for every save not yet performed.
  load_slices(0, h);
  {
    detail::CGepEngine<Acc, AuxU, AuxV, F, S, Hook> eng(
        c, u0, u1, v0, v1, f, sigma, hook, /*kbase=*/0, /*kwidth=*/h, base);
    eng.rec(0, 0, 0, h);  // X11 forward
    eng.rec(0, h, 0, h);  // X12
    eng.rec(h, 0, 0, h);  // X21
    eng.rec(h, h, 0, h);  // X22
  }
  // Phase 2: k in [h, n).
  load_slices(h, n - h);
  {
    detail::CGepEngine<Acc, AuxU, AuxV, F, S, Hook> eng(
        c, u0, u1, v0, v1, f, sigma, hook, /*kbase=*/h, /*kwidth=*/n - h,
        base);
    eng.rec(h, h, h, h);  // X22 backward
    eng.rec(h, 0, h, h);  // X21
    eng.rec(0, h, h, h);  // X12
    eng.rec(0, 0, h, h);  // X11
  }
}

// In-core reduced-space C-GEP: allocates the 2n² extra cells.
template <class T, class F, UpdateSet S, class Hook = NoHook>
void run_cgep_compact(Matrix<T>& c, const F& f, const S& sigma,
                      CGepOptions opts = {}, Hook* hook = nullptr) {
  const index_t n = c.rows();
  assert(c.cols() == n);
  const index_t h = cgep_compact_half(n);
  DirectAccess<T> ca(c.view());
  Matrix<T> u0(n, h), u1(n, h), v0(h, n), v1(h, n);
  DirectAccess<T> a0(u0.view()), a1(u1.view()), b0(v0.view()), b1(v1.view());
  run_cgep_compact_with_aux(ca, a0, a1, b0, b1, f, sigma, opts, hook);
}

}  // namespace gep
