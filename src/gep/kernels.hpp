// Base-case kernels for the typed I-GEP engine: runtime-dispatched.
//
// The portable reference kernels live in gep::scalar (below). The
// gep::kernel_* entry points every engine calls are thin dispatch
// wrappers that consult simd::active() once per leaf:
//   - ge / lu / mm over double / float route to the explicit AVX2/FMA
//     kernels in simd/kernels_avx2.cpp; their D-kind (fully disjoint)
//     leaves of at least simd::kGemmMinM rows route through the
//     packed (+, x) micro-kernel in simd/gemm_leaf.cpp.
//   - fw / bottleneck / tc (the min-plus, max-min and or-and semirings)
//     route their D-kind leaves of at least kGemmMinM rows, over
//     double / float resp. bytes, through the same packed micro-kernel
//     instantiated for their semiring. The kernels' contract is that
//     tiles are either identical or disjoint, so `x != u && x != v` is
//     the D-kind test. Every other semiring leaf runs one straight-line
//     template over the same semiring policy (scalar::kernel_semiring),
//     which is also G's update order.
// Everything else — other element types, non-x86 hosts and
// $GEP_FORCE_SCALAR=1 — runs the scalar templates. See docs/KERNELS.md.
//
// Numeric contract of the dispatch (tests/test_simd_kernels.cpp):
//   - fw / bottleneck / tc: BIT-IDENTICAL to G at every level (same
//     elementwise add / min / max / and / or, the old value winning
//     ties; min, max and or are exact, so grouping a D box's k-chunk
//     first changes no bit).
//   - ge / lu / mm: AVX2 uses FMA and a different summation order in
//     the packed path, so results are tolerance-equivalent to scalar
//     and deterministic run-to-run at a fixed dispatch level.
//   - kernel_lu vs kernel_lu_guarded route identically, so guarded and
//     unguarded runs stay bit-identical on healthy input.
//
// Each scalar kernel processes one leaf box of updates in G's k/i/j
// order with operand hoisting: the c[i,k]-derived coefficient is
// loop-invariant in j, so the inner loop is a unit-stride vectorizable
// sweep. This is the paper's Section 4.2 recipe (iterative base case,
// divisions hoisted out of the innermost loop); `restrict` is applied
// only where the tile arguments are guaranteed disjoint (D-kind boxes).
//
// Kernel arguments follow the paper's X/U/V/W naming:
//   x — the updated tile           (c[I x J])
//   u — the coefficient tile       (c[I x K])
//   v — the row tile               (c[K x J])
//   w — the diagonal tile          (c[K x K])
// `diag_i` means I == K (updates restricted to i > k), `diag_j` means
// J == K (updates restricted to j >= k resp. j > k). Tiles may alias
// when ranges coincide; kernels are written to be alias-correct.
//
// Extents: a box is mi x mj (the x tile) by mk (the k-range), clipped
// to the n x n matrix at its bottom and right edges (LeafDims in
// matrix/matrix.hpp); diag_i implies mi == mk and diag_j mj == mk. The
// wrappers take a LeafDims and decide every routing on its nominal side
// m, never on the extents, so an edge leaf takes the packed or the row
// path its box would take inside the matrix, and its in-range results
// match that unclipped box bit for bit (docs/KERNELS.md). A plain side
// converts to the square LeafDims.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "gep/numeric_guard.hpp"
#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/kernels_avx2.hpp"
#include "simd/microkernel.hpp"

namespace gep {
namespace scalar {

// One box of a semiring update x[i][j] = x[i][j] (+) u[i][k] (x) v[k][j]
// in G's k/i/j order, SR::step being G's update (simd/microkernel.hpp):
// min-plus for Floyd-Warshall, max-min for bottleneck paths, or-and for
// transitive closure. Σ is the full cube, so the flags are irrelevant.
// Aliasing (A/B/C boxes) is benign: the k-row and k-column are fixed
// points of iteration k — Floyd-Warshall's diagonal is 0, bottleneck's
// +inf capacity, and x[i][k] |= x[i][k] & w never changes x[i][k] — so
// the hoisted u[i][k] stays valid across the j sweep.
template <template <class> class SR, class T>
void kernel_semiring(T* x, const T* u, const T* v, index_t mi, index_t mj,
                     index_t mk, index_t sx, index_t su, index_t sv) {
  using S = SR<simd::ScalarVec<T>>;
  for (index_t k = 0; k < mk; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < mi; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < mj; ++j) xi[j] = S::step(xi[j], uik, vk[j]);
    }
  }
}

// Gaussian elimination without pivoting (no multipliers stored):
// x[i][j] -= (u[i][k] / w[k][k]) * v[k][j] over the box, with the
// division hoisted out of the inner loop.
template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, index_t mi,
               index_t mj, index_t mk, index_t sx, index_t su, index_t sv,
               index_t sw, bool diag_i, bool diag_j) {
  for (index_t k = 0; k < mk; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < mi; ++i) {
      const T t = u[i * su + k] / wkk;
      T* xi = x + i * sx;
      for (index_t j = jlo; j < mj; ++j) xi[j] -= t * vk[j];
    }
  }
}

// LU decomposition without pivoting (multipliers stored in place).
// When J == K the j == k update computes the multiplier x[i][k] /= w[k][k]
// before the row sweep; when J != K the multipliers already live in u.
// With a pivot guard, every pivot consulted while J == K runs through
// PivotGuard::admit before the division. Boosting is only legal where
// the pivot is being CREATED — the A-kind diagonal boxes
// (diag_i && diag_j), where w aliases the write-pinned x tile, so the
// floored value persists and every later reader (B/C/D boxes) sees it.
// k_base is the box's global elimination offset (error messages and
// reports index pivots in matrix coordinates). w is non-const because
// Boost rewrites the slot; guard == nullptr (unguarded), Throw and
// Report never write through it. One code path keeps guarded and
// unguarded runs bit-identical on healthy input.
template <class T>
void kernel_lu(T* x, const T* u, const T* v, T* w, index_t mi, index_t mj,
               index_t mk, index_t sx, index_t su, index_t sv, index_t sw,
               bool diag_i, bool diag_j, const PivotGuard* guard,
               index_t k_base) {
  for (index_t k = 0; k < mk; ++k) {
    T wkk = w[k * sw + k];
    if (guard != nullptr && diag_j) {
      wkk = guard->admit(&w[k * sw + k], k_base + k,
                         /*boostable=*/diag_i && diag_j);
    }
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < mi; ++i) {
      T* xi = x + i * sx;
      T uik;
      if (diag_j) {
        xi[k] /= wkk;  // <i,k,k>: store multiplier (x aliases u here)
        uik = xi[k];
      } else {
        uik = u[i * su + k];
      }
      for (index_t j = jlo; j < mj; ++j) xi[j] -= uik * vk[j];
    }
  }
}

// Floyd-Warshall relaxation with successor tracking: whenever a strict
// improvement x[i][j] > u[i][k] + v[k][j] is applied, the successor of
// (i,j) becomes the successor of (i,k) — the first hop of the improving
// path. The successor tiles alias exactly as the distance tiles do, so
// the state a successor is read in always matches the state of its
// distance (both matrices advance in lockstep).
template <class T, class I>
void kernel_fw_paths(T* x, const T* u, const T* v, I* sx_succ,
                     const I* su_succ, index_t mi, index_t mj, index_t mk,
                     index_t sx, index_t su, index_t sv, index_t ssx,
                     index_t ssu) {
  for (index_t k = 0; k < mk; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < mi; ++i) {
      const T uik = u[i * su + k];
      const I sik = su_succ[i * ssu + k];
      T* xi = x + i * sx;
      I* si = sx_succ + i * ssx;
      for (index_t j = 0; j < mj; ++j) {
        const T cand = uik + vk[j];
        if (cand < xi[j]) {
          xi[j] = cand;
          si[j] = sik;
        }
      }
    }
  }
}

// Matrix multiplication accumulate: x += u * v. Only ever called on
// disjoint tiles, so restrict is sound and the compiler can vectorize
// and unroll freely.
template <class T>
void kernel_mm(T* __restrict x, const T* __restrict u, const T* __restrict v,
               index_t mi, index_t mj, index_t mk, index_t sx, index_t su,
               index_t sv) {
  for (index_t k = 0; k < mk; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < mi; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < mj; ++j) xi[j] += uik * vk[j];
    }
  }
}

}  // namespace scalar

namespace detail {

// True for element types with an explicit AVX2 kernel set.
template <class T>
inline constexpr bool simd_vec_type =
    std::is_same_v<T, double> || std::is_same_v<T, float>;

// One dispatch decision per leaf call: true when the active level runs
// the vector kernels (every level from Avx2 up), which it then ticks;
// a caller that falls through to the scalar templates ticks Scalar.
inline bool leaf_use_avx2() {
#if GEP_SIMD_X86
  const simd::Level l = simd::active();
  if (l >= simd::Level::Avx2) {
    simd::note_leaf(l);
    return true;
  }
#endif
  return false;
}

// A semiring leaf: D-kind boxes (x disjoint from u and v) of at least
// kGemmMinM rows through the packed micro-kernel when the element
// type has one (Vectorized), every other box through the straight-line
// template.
template <template <class> class SR, bool Vectorized, class T>
void semiring_leaf(T* x, const T* u, const T* v, LeafDims d, index_t sx,
                   index_t su, index_t sv) {
#if GEP_SIMD_X86
  if constexpr (Vectorized) {
    if (x != u && x != v && d.m >= simd::kGemmMinM && leaf_use_avx2()) {
      simd::semiring_tile<SR>(x, u, v, d.mi, d.mj, d.mk, sx, su, sv);
      return;
    }
  }
#endif
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_semiring<SR>(x, u, v, d.mi, d.mj, d.mk, sx, su, sv);
}

// LU leaf with an optional pivot guard (nullptr = unguarded). D-kind
// leaves never consult the guard (diag_j is false), so guarded and
// unguarded calls route identically and stay bitwise equal.
template <class T>
void lu_leaf(T* x, const T* u, const T* v, T* w, LeafDims d, index_t sx,
             index_t su, index_t sv, index_t sw, bool diag_i, bool diag_j,
             const PivotGuard* guard, index_t k_base) {
#if GEP_SIMD_X86
  if constexpr (simd_vec_type<T>) {
    if (leaf_use_avx2()) {
      if (!diag_i && !diag_j && d.m >= simd::kGemmMinM) {
        // D-kind leaf: multipliers already live in u — pure schur GEMM.
        simd::gemm_tile(x, u, v, d.mi, d.mj, d.mk, sx, su, sv, T{-1});
      } else {
        simd::lu_avx2(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv, sw, diag_i,
                      diag_j, guard, k_base);
      }
      return;
    }
  }
#endif
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_lu(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv, sw, diag_i,
                    diag_j, guard, k_base);
}

}  // namespace detail

// --- dispatch wrappers (the names every engine calls) ----------------------

// Floyd-Warshall relaxation over the (min, +) semiring.
template <class T>
void kernel_fw(T* x, const T* u, const T* v, LeafDims d, index_t sx,
               index_t su, index_t sv) {
  detail::semiring_leaf<simd::MinPlus, detail::simd_vec_type<T>>(
      x, u, v, d, sx, su, sv);
}

template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, LeafDims d,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (!diag_i && !diag_j && d.m >= simd::kGemmMinM) {
        // D-kind leaf: fold the division into A-packing, run as GEMM.
        simd::gemm_tile_scaled(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv,
                               sw);
      } else {
        simd::ge_avx2(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv, sw, diag_i,
                      diag_j);
      }
      return;
    }
  }
#endif
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_ge(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv, sw, diag_i,
                    diag_j);
}

// The unguarded leaf never writes through w.
template <class T>
void kernel_lu(T* x, const T* u, const T* v, const T* w, LeafDims d,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
  detail::lu_leaf(x, u, v, const_cast<T*>(w), d, sx, su, sv, sw, diag_i,
                  diag_j, nullptr, 0);
}

template <class T>
void kernel_lu_guarded(T* x, const T* u, const T* v, T* w, LeafDims d,
                       index_t sx, index_t su, index_t sv, index_t sw,
                       bool diag_i, bool diag_j, const PivotGuard& guard,
                       index_t k_base) {
  detail::lu_leaf(x, u, v, w, d, sx, su, sv, sw, diag_i, diag_j, &guard,
                  k_base);
}

// Successor tracking is branchy per element (data-dependent stores), so
// it stays on the scalar path at every dispatch level.
template <class T, class I>
void kernel_fw_paths(T* x, const T* u, const T* v, I* sx_succ,
                     const I* su_succ, LeafDims d, index_t sx, index_t su,
                     index_t sv, index_t ssx, index_t ssu) {
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_fw_paths(x, u, v, sx_succ, su_succ, d.mi, d.mj, d.mk, sx,
                          su, sv, ssx, ssu);
}

// Maximum-capacity (bottleneck) paths over the (max, min) semiring.
template <class T>
void kernel_bottleneck(T* x, const T* u, const T* v, LeafDims d, index_t sx,
                       index_t su, index_t sv) {
  detail::semiring_leaf<simd::MaxMin, detail::simd_vec_type<T>>(
      x, u, v, d, sx, su, sv);
}

// Transitive closure over the boolean (or, and) semiring:
// x[i][j] |= u[i][k] & v[k][j].
template <class T>
void kernel_tc(T* x, const T* u, const T* v, LeafDims d, index_t sx,
               index_t su, index_t sv) {
  detail::semiring_leaf<simd::OrAnd, std::is_same_v<T, std::uint8_t>>(
      x, u, v, d, sx, su, sv);
}

template <class T>
void kernel_mm(T* x, const T* u, const T* v, LeafDims d, index_t sx,
               index_t su, index_t sv) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (d.m >= simd::kGemmMinM) {
        simd::gemm_tile(x, u, v, d.mi, d.mj, d.mk, sx, su, sv, T{1});
      } else {
        simd::mm_avx2(x, u, v, d.mi, d.mj, d.mk, sx, su, sv);
      }
      return;
    }
  }
#endif
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_mm(x, u, v, d.mi, d.mj, d.mk, sx, su, sv);
}

}  // namespace gep
