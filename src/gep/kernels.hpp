// Base-case kernels for the typed I-GEP engine: runtime-dispatched.
//
// The portable reference kernels live in gep::scalar (below, unchanged
// from the original iterative base cases). The gep::kernel_* entry
// points every engine calls are thin dispatch wrappers: for double /
// float (and byte tiles for TC) they consult simd::active() once per
// leaf and route to the explicit AVX2/FMA implementations in
// simd/kernels_avx2.cpp; D-kind (fully disjoint) GE/LU/MM leaves of at
// least simd::kGemmMinM rows additionally route through the
// packed-panel GEMM in simd/gemm_leaf.cpp. Everything else — other
// element types, non-x86 hosts, $GEP_FORCE_SCALAR=1, and the semiring
// kernels in AVX-512 TUs (GEP_SIMD_ROUTE_SEMIRING below) — runs the
// scalar templates exactly as before. See docs/KERNELS.md.
//
// Numeric contract of the dispatch (tests/test_simd_kernels.cpp):
//   - fw / bottleneck / tc: AVX2 results are BIT-IDENTICAL to scalar
//     (same elementwise min/max/or/add, same tie resolution).
//   - ge / lu / mm: AVX2 uses FMA and a different summation order in
//     the packed path, so results are tolerance-equivalent to scalar
//     and deterministic run-to-run at a fixed dispatch level.
//   - kernel_lu vs kernel_lu_guarded route identically, so guarded and
//     unguarded runs stay bit-identical on healthy input.
//
// Each scalar kernel processes one m x m tile box of updates in G's
// k/i/j order with operand hoisting: the c[i,k]-derived coefficient is
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
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "gep/numeric_guard.hpp"
#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/kernels_avx2.hpp"

// The semiring kernels (fw / bottleneck / tc) are pure elementwise
// sweeps with no reductions across the vector lanes — exactly the shape
// compilers autovectorize well. In a TU compiled with AVX-512 enabled
// (e.g. -march=native on a 512-bit host, the GEP_NATIVE_ARCH=ON
// default) the autovectorized scalar template is 512 bits wide: GCC 12
// emits zmm vaddpd/vminpd for the min-plus sweep (checked by
// disassembly on an AVX-512 Xeon), and it runs 1.0-1.7x the explicit
// 256-bit kernels at m <= 128 (BENCH_kernels.json), so routing there
// would be a de-optimization. Route them to AVX2 only where the TU's
// own codegen cannot already match it; portable (non-native) builds —
// the reason runtime dispatch exists — still route and win. All TUs of
// one build share arch flags, so this compile-time fork is
// ODR-consistent. The FMA kernels (ge / lu / mm) always route: packing
// and register blocking beat autovectorization at any ISA width.
#if GEP_SIMD_X86 && !defined(__AVX512F__)
#define GEP_SIMD_ROUTE_SEMIRING 1
#else
#define GEP_SIMD_ROUTE_SEMIRING 0
#endif

namespace gep {
namespace scalar {

// Floyd-Warshall relaxation over one box; Σ is the full cube, so the
// flags are irrelevant. Aliasing (A/B/C boxes) is benign: with a
// zero-diagonal metric, the k-row and k-column are fixed points of
// iteration k, so the hoisted u_ik stays valid across the j sweep.
template <class T>
void kernel_fw(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = std::min(xi[j], static_cast<T>(uik + vk[j]));
      }
    }
  }
}

// Gaussian elimination without pivoting (no multipliers stored):
// x[i][j] -= (u[i][k] / w[k][k]) * v[k][j] over the box, with the
// division hoisted out of the inner loop.
template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
  for (index_t k = 0; k < m; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      const T t = u[i * su + k] / wkk;
      T* xi = x + i * sx;
      for (index_t j = jlo; j < m; ++j) xi[j] -= t * vk[j];
    }
  }
}

// LU decomposition without pivoting (multipliers stored in place).
// When J == K the j == k update computes the multiplier x[i][k] /= w[k][k]
// before the row sweep; when J != K the multipliers already live in u.
template <class T>
void kernel_lu(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
  for (index_t k = 0; k < m; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      T* xi = x + i * sx;
      T uik;
      if (diag_j) {
        xi[k] /= wkk;  // <i,k,k>: store multiplier (x aliases u here)
        uik = xi[k];
      } else {
        uik = u[i * su + k];
      }
      for (index_t j = jlo; j < m; ++j) xi[j] -= uik * vk[j];
    }
  }
}

// kernel_lu with a pivot guard: every pivot consulted while J == K runs
// through PivotGuard::admit before the division. Boosting is only legal
// where the pivot is being CREATED — the A-kind diagonal boxes
// (diag_i && diag_j), where w aliases the write-pinned x tile, so the
// floored value persists and every later reader (B/C/D boxes) sees it.
// k_base is the box's global elimination offset (error messages and
// reports index pivots in matrix coordinates). w is non-const because
// Boost rewrites the slot; Throw/Report never write through it.
template <class T>
void kernel_lu_guarded(T* x, const T* u, const T* v, T* w, index_t m,
                       index_t sx, index_t su, index_t sv, index_t sw,
                       bool diag_i, bool diag_j, const PivotGuard& guard,
                       index_t k_base) {
  for (index_t k = 0; k < m; ++k) {
    T wkk = w[k * sw + k];
    if (diag_j) {
      wkk = guard.admit(&w[k * sw + k], k_base + k,
                        /*boostable=*/diag_i && diag_j);
    }
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      T* xi = x + i * sx;
      T uik;
      if (diag_j) {
        xi[k] /= wkk;
        uik = xi[k];
      } else {
        uik = u[i * su + k];
      }
      for (index_t j = jlo; j < m; ++j) xi[j] -= uik * vk[j];
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
                     const I* su_succ, index_t m, index_t sx, index_t su,
                     index_t sv, index_t ssx, index_t ssu) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      const I sik = su_succ[i * ssu + k];
      T* xi = x + i * sx;
      I* si = sx_succ + i * ssx;
      for (index_t j = 0; j < m; ++j) {
        const T cand = uik + vk[j];
        if (cand < xi[j]) {
          xi[j] = cand;
          si[j] = sik;
        }
      }
    }
  }
}

// Maximum-capacity (bottleneck) paths over the (max, min) semiring:
// x[i][j] = max(x[i][j], min(u[i][k], v[k][j])). Idempotent like min-plus,
// so it is an I-GEP-legal instance; the aliasing argument mirrors
// kernel_fw (the diagonal is +infinity capacity, a fixed point).
template <class T>
void kernel_bottleneck(T* x, const T* u, const T* v, index_t m, index_t sx,
                       index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = std::max(xi[j], std::min(uik, vk[j]));
      }
    }
  }
}

// Transitive closure over the boolean or-and semiring:
// x[i][j] |= u[i][k] & v[k][j]. The u[i][k] test hoists to a row skip —
// and stays valid under aliasing, because the j == k update
// x[i][k] |= x[i][k] & w never changes x[i][k].
template <class T>
void kernel_tc(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      if (!u[i * su + k]) continue;
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) {
        xi[j] = static_cast<T>(xi[j] | vk[j]);
      }
    }
  }
}

// Matrix multiplication accumulate: x += u * v. Only ever called on
// disjoint tiles, so restrict is sound and the compiler can vectorize
// and unroll freely.
template <class T>
void kernel_mm(T* __restrict x, const T* __restrict u, const T* __restrict v,
               index_t m, index_t sx, index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      const T uik = u[i * su + k];
      T* xi = x + i * sx;
      for (index_t j = 0; j < m; ++j) xi[j] += uik * vk[j];
    }
  }
}

}  // namespace scalar

namespace detail {

// True for element types with an explicit AVX2 kernel set.
template <class T>
inline constexpr bool simd_vec_type =
    std::is_same_v<T, double> || std::is_same_v<T, float>;

// True for 1-byte integral types the TC byte kernel serves.
template <class T>
inline constexpr bool simd_byte_type =
    std::is_integral_v<T> && sizeof(T) == 1;

// One dispatch decision per leaf call, with the obs tick. Every level
// from Avx2 up runs the AVX2 leaf kernels; only the packed-GEMM tile
// behind simd::gemm_tile widens at Avx512.
inline bool leaf_use_avx2() {
#if GEP_SIMD_X86
  const simd::Level l = simd::active();
  simd::note_leaf(l);
  return l >= simd::Level::Avx2;
#else
  simd::note_leaf(simd::Level::Scalar);
  return false;
#endif
}

}  // namespace detail

// --- dispatch wrappers (the names every engine calls) ----------------------

template <class T>
void kernel_fw(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
#if GEP_SIMD_ROUTE_SEMIRING
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      simd::fw_avx2(x, u, v, m, sx, su, sv);
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_fw(x, u, v, m, sx, su, sv);
}

template <class T>
void kernel_ge(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (!diag_i && !diag_j && m >= simd::gemm_min_m()) {
        // D-kind leaf: fold the division into A-packing, run as GEMM.
        simd::gemm_tile_scaled(x, u, v, w, m, sx, su, sv, sw);
      } else {
        simd::ge_avx2(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
      }
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_ge(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
}

template <class T>
void kernel_lu(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, bool diag_i,
               bool diag_j) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (!diag_i && !diag_j && m >= simd::gemm_min_m()) {
        // D-kind leaf: multipliers already live in u — pure schur GEMM.
        simd::gemm_tile(x, u, v, m, sx, su, sv, T{-1});
      } else {
        // lu_avx2 takes w mutable for the guarded variant; the
        // unguarded call (guard == nullptr) never writes through it.
        simd::lu_avx2(x, u, v, const_cast<T*>(w), m, sx, su, sv, sw, diag_i,
                      diag_j, /*guard=*/nullptr, /*k_base=*/0);
      }
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_lu(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
}

template <class T>
void kernel_lu_guarded(T* x, const T* u, const T* v, T* w, index_t m,
                       index_t sx, index_t su, index_t sv, index_t sw,
                       bool diag_i, bool diag_j, const PivotGuard& guard,
                       index_t k_base) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (!diag_i && !diag_j && m >= simd::gemm_min_m()) {
        // D-kind never consults the guard (diag_j is false) — identical
        // routing to kernel_lu keeps guarded == unguarded bitwise.
        simd::gemm_tile(x, u, v, m, sx, su, sv, T{-1});
      } else {
        simd::lu_avx2(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j, &guard,
                      k_base);
      }
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_lu_guarded(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j,
                            guard, k_base);
}

// Successor tracking is branchy per element (data-dependent stores), so
// it stays on the scalar path at every dispatch level.
template <class T, class I>
void kernel_fw_paths(T* x, const T* u, const T* v, I* sx_succ,
                     const I* su_succ, index_t m, index_t sx, index_t su,
                     index_t sv, index_t ssx, index_t ssu) {
  simd::note_leaf(simd::Level::Scalar);
  scalar::kernel_fw_paths(x, u, v, sx_succ, su_succ, m, sx, su, sv, ssx,
                          ssu);
}

template <class T>
void kernel_bottleneck(T* x, const T* u, const T* v, index_t m, index_t sx,
                       index_t su, index_t sv) {
#if GEP_SIMD_ROUTE_SEMIRING
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      simd::bottleneck_avx2(x, u, v, m, sx, su, sv);
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_bottleneck(x, u, v, m, sx, su, sv);
}

template <class T>
void kernel_tc(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
#if GEP_SIMD_ROUTE_SEMIRING
  if constexpr (detail::simd_byte_type<T>) {
    if (detail::leaf_use_avx2()) {
      simd::tc_avx2(reinterpret_cast<std::uint8_t*>(x),
                    reinterpret_cast<const std::uint8_t*>(u),
                    reinterpret_cast<const std::uint8_t*>(v), m, sx, su, sv);
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_tc(x, u, v, m, sx, su, sv);
}

template <class T>
void kernel_mm(T* x, const T* u, const T* v, index_t m, index_t sx,
               index_t su, index_t sv) {
#if GEP_SIMD_X86
  if constexpr (detail::simd_vec_type<T>) {
    if (detail::leaf_use_avx2()) {
      if (m >= simd::gemm_min_m()) {
        simd::gemm_tile(x, u, v, m, sx, su, sv, T{1});
      } else {
        simd::mm_avx2(x, u, v, m, sx, su, sv);
      }
      return;
    }
  } else {
    simd::note_leaf(simd::Level::Scalar);
  }
#else
  simd::note_leaf(simd::Level::Scalar);
#endif
  scalar::kernel_mm(x, u, v, m, sx, su, sv);
}

}  // namespace gep
