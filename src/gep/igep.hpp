// F — cache-oblivious I-GEP (paper Fig. 2).
//
// Recursive divide-and-conquer over the quadrants of X and halves of the
// k-interval: a forward pass (lower k-half) over X11, X12, X21, X22
// followed by a backward pass (upper k-half) over X22, X21, X12, X11.
// In-place, O(n³) work, O(n³/(B·√M)) cache misses under the tall-cache
// assumption. Correct for the GEP instances of Section 2 (Floyd-Warshall,
// Gaussian elimination / LU without pivoting, matrix multiplication, ...)
// but NOT for arbitrary (f, Σ_G) — see C-GEP (cgep.hpp) for those.
//
// opts.base_size > 1 switches to an iterative kernel (G's loop order
// restricted to the box) once subproblems reach that size — the standard
// recursion-overhead optimization of Section 4.2. With base_size == 1 the
// execution matches Fig. 2 exactly (used by the theorem tests).
// Any n runs in place: boxes past n are pruned and the rest clipped,
// as in C-GEP (cgep.hpp) and the typed engine.
#pragma once

#include "gep/access.hpp"
#include "gep/functors.hpp"
#include "gep/update_set.hpp"

namespace gep {

struct IGepOptions {
  index_t base_size = 1;
};

namespace detail {

// Iterative kernel over the box [i0,i0+d.mi) x [j0,j0+d.mj) x
// [k0,k0+d.mk), reading live values in G's k/i/j order (legal refinement
// of the recursion for I-GEP-correct instances; see DESIGN.md §6).
template <class Acc, class F, class S, class Hook>
void igep_box_kernel(Acc& c, const F& f, const S& sigma, Hook* hook,
                     index_t i0, index_t j0, index_t k0, LeafDims d) {
  using T = typename Acc::value_type;
  for (index_t k = k0; k < k0 + d.mk; ++k) {
    for (index_t i = i0; i < i0 + d.mi; ++i) {
      for (index_t j = j0; j < j0 + d.mj; ++j) {
        if (!sigma.contains(i, j, k)) continue;
        if (hook) hook->on_update(i, j, k);
        T x = c.get(i, j);
        T u = c.get(i, k);
        T v = c.get(k, j);
        T w = c.get(k, k);
        c.set(i, j, apply_f(f, x, u, v, w, i, j, k));
      }
    }
  }
}

template <class Acc, class F, class S, class Hook>
void igep_rec(Acc& c, const F& f, const S& sigma, Hook* hook, index_t n,
              index_t i0, index_t j0, index_t k0, index_t m, index_t base) {
  if (i0 >= n || j0 >= n || k0 >= n) return;
  const LeafDims d = LeafDims::clipped(n, i0, j0, k0, m);
  if (!sigma.intersects_box(i0, i0 + d.mi - 1, j0, j0 + d.mj - 1, k0,
                            k0 + d.mk - 1))
    return;
  if (m <= base) {
    igep_box_kernel(c, f, sigma, hook, i0, j0, k0, d);
    return;
  }
  const index_t h = m / 2;
  const index_t k2 = k0 + h;
  // Forward pass: X11, X12, X21, X22 with the lower k-half.
  igep_rec(c, f, sigma, hook, n, i0, j0, k0, h, base);
  igep_rec(c, f, sigma, hook, n, i0, j0 + h, k0, h, base);
  igep_rec(c, f, sigma, hook, n, i0 + h, j0, k0, h, base);
  igep_rec(c, f, sigma, hook, n, i0 + h, j0 + h, k0, h, base);
  // Backward pass: X22, X21, X12, X11 with the upper k-half.
  igep_rec(c, f, sigma, hook, n, i0 + h, j0 + h, k2, h, base);
  igep_rec(c, f, sigma, hook, n, i0 + h, j0, k2, h, base);
  igep_rec(c, f, sigma, hook, n, i0, j0 + h, k2, h, base);
  igep_rec(c, f, sigma, hook, n, i0, j0, k2, h, base);
}

}  // namespace detail

template <Accessor Acc, class F, UpdateSet S, class Hook = NoHook>
void run_igep(Acc& c, const F& f, const S& sigma, IGepOptions opts = {},
              Hook* hook = nullptr) {
  const index_t n = c.n();
  detail::igep_rec(c, f, sigma, hook, n, 0, 0, 0, next_pow2(n),
                   std::max<index_t>(1, opts.base_size));
}

// Convenience overload for an in-memory matrix.
template <class T, class F, UpdateSet S>
void run_igep(Matrix<T>& c, const F& f, const S& sigma, IGepOptions opts = {}) {
  DirectAccess<T> acc(c.view());
  run_igep(acc, f, sigma, opts);
}

}  // namespace gep
