#include "simd/gemm_leaf.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

// k-chunk for panel packing. Leaf tiles are almost always <= this, so B
// packs exactly once per leaf call and is reused across all A panels.
// (The thread-local packing panels live in microkernel.hpp's
// packing_buffer, shared with the Strassen layer.)
constexpr index_t kGemmKc = kMaxPanelK;
static_assert(kGemmKc <= kMaxPanelK,
              "pack_a_scaled's reciprocal buffer is sized for kMaxPanelK");

// Shared macro-loop: x (+)= alpha * packed(u') (x) v over semiring SR,
// where u' is either u or u scaled by 1/diag(w) (Scaled = GE multiplier
// fold; alpha only matters to PlusTimes). x is mi x mj, the k-range mk.
// k-chunks start at 0 with the same kc as the unclipped box, so an
// element sees the same step chain followed by fewer neutral steps,
// which leave it unchanged.
template <template <class> class SR, class T, bool Scaled>
void gemm_impl(T* x, const T* u, const T* v, const T* w, index_t mi,
               index_t mj, index_t mk, index_t sx, index_t su, index_t sv,
               index_t sw, T alpha) {
  with_ukr<SR, T>([&](auto tile, UkrFn<T> ukr) {
    constexpr index_t MR = decltype(tile)::MR;
    constexpr index_t NR = decltype(tile)::NR;
    const index_t kc = std::min(mk, kGemmKc);
    T* pa = packing_buffer<T>(
        0, static_cast<std::size_t>(packed_a_size(MR, mi, kc)));
    T* pb = packing_buffer<T>(
        1, static_cast<std::size_t>(packed_b_size(NR, kc, mj)));
    for (index_t pc = 0; pc < mk; pc += kc) {
      const index_t kcb = std::min(kc, mk - pc);
      pack_b<NR>(v + pc * sv, sv, kcb, mj, pb);
      if constexpr (Scaled) {
        pack_a_scaled<MR>(u + pc, su, mi, kcb, w + pc * sw + pc, sw, pa);
      } else {
        pack_a<MR>(u + pc, su, mi, kcb, pa);
      }
      for (index_t jr = 0; jr < mj; jr += NR) {
        const index_t nr = std::min(NR, mj - jr);
        const T* pbj = pb + (jr / NR) * kcb * NR;
        for (index_t ir = 0; ir < mi; ir += MR) {
          const GemmDest<T> c{x + ir * sx + jr, T{1}};
          ukr(kcb, alpha, pa + (ir / MR) * kcb * MR, pbj, &c, 1, sx,
              std::min(MR, mi - ir), nr);
        }
      }
    }
  });
}

// Strassen runs on whole m x m boxes and is engaged on the side m, like
// every other route, so an edge box takes it exactly when the box of the
// matrix padded to a power of two did. Its operand sums mix the padded
// box's out-of-range u/v entries into in-range results, so the edge box
// is staged into zero-filled m x m tiles — the Σ-neutral pad, zero off
// the diagonal (w's diagonal gets the pad's 1) — and its in-range x is
// copied back (docs/KERNELS.md, "Extents contract"). Returns false,
// touching nothing, when the side does not engage Strassen.
template <class T, class Square>
bool strassen_box(T* x, const T* u, const T* v, const T* w, LeafDims d,
                  index_t sx, index_t su, index_t sv, index_t sw,
                  const Square& square) {
  const index_t m = d.m;
  if (d.mi == m && d.mj == m && d.mk == m) {
    return square(x, u, v, w, sx, su, sv, sw);
  }
  if (strassen_planned_levels(m, m, m) == 0) return false;
  thread_local AlignedPtr<T> buf;
  thread_local std::size_t cap = 0;
  const auto mm = static_cast<std::size_t>(m) * static_cast<std::size_t>(m);
  if (cap < 3 * mm + static_cast<std::size_t>(m)) {
    cap = 3 * mm + static_cast<std::size_t>(m);
    buf = make_aligned<T>(cap);
  }
  T* xs = buf.get();
  T* us = xs + mm;
  T* vs = us + mm;
  T* ws = vs + mm;  // w's diagonal only: read as ws[p * 0 + p]
  auto stage = [m](T* dst, const T* src, index_t ld, index_t rows,
                   index_t cols) {
    std::fill(dst, dst + static_cast<std::size_t>(m) * m, T{0});
    for (index_t i = 0; i < rows; ++i) {
      std::copy(src + i * ld, src + i * ld + cols, dst + i * m);
    }
  };
  stage(xs, x, sx, d.mi, d.mj);
  stage(us, u, su, d.mi, d.mk);
  stage(vs, v, sv, d.mk, d.mj);
  if (w != nullptr) {
    for (index_t p = 0; p < m; ++p) ws[p] = p < d.mk ? w[p * sw + p] : T{1};
  }
  square(xs, us, vs, ws, m, m, m, 0);
  for (index_t i = 0; i < d.mi; ++i) {
    std::copy(xs + i * m, xs + i * m + d.mj, x + i * sx);
  }
  return true;
}

template <class T>
void gemm_tile_impl(T* x, const T* u, const T* v, LeafDims d, index_t sx,
                    index_t su, index_t sv, T alpha) {
  auto square = [&](T* xs, const T* us, const T* vs, const T*, index_t ldx,
                    index_t ldu, index_t ldv, index_t) {
    return strassen_gemm(d.m, d.m, d.m, alpha, us, ldu, vs, ldv, xs, ldx);
  };
  if (strassen_box<T>(x, u, v, nullptr, d, sx, su, sv, 0, square)) return;
  gemm_impl<PlusTimes, T, false>(x, u, v, nullptr, d.mi, d.mj, d.mk, sx, su,
                                 sv, 0, alpha);
}

template <class T>
void gemm_tile_scaled_impl(T* x, const T* u, const T* v, const T* w,
                           LeafDims d, index_t sx, index_t su, index_t sv,
                           index_t sw) {
  auto square = [&](T* xs, const T* us, const T* vs, const T* ws, index_t ldx,
                    index_t ldu, index_t ldv, index_t ldw) {
    return strassen_gemm_scaled(xs, us, vs, ws, d.m, ldx, ldu, ldv, ldw);
  };
  if (strassen_box(x, u, v, w, d, sx, su, sv, sw, square)) return;
  gemm_impl<PlusTimes, T, true>(x, u, v, w, d.mi, d.mj, d.mk, sx, su, sv, sw,
                                T{-1});
}

}  // namespace

// Each entry point consults the Strassen layer first; it engages only
// above the measured crossover (strassen_min_m) and returns false
// otherwise, keeping sub-threshold leaves bit-identical to the classic
// packed path.
void gemm_tile(double* x, const double* u, const double* v, LeafDims d,
               index_t sx, index_t su, index_t sv, double alpha) {
  gemm_tile_impl(x, u, v, d, sx, su, sv, alpha);
}
void gemm_tile(float* x, const float* u, const float* v, LeafDims d,
               index_t sx, index_t su, index_t sv, float alpha) {
  gemm_tile_impl(x, u, v, d, sx, su, sv, alpha);
}

void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, LeafDims d, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  gemm_tile_scaled_impl(x, u, v, w, d, sx, su, sv, sw);
}
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, LeafDims d, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  gemm_tile_scaled_impl(x, u, v, w, d, sx, su, sv, sw);
}

template <template <class> class SR, class T>
void semiring_tile(T* x, const T* u, const T* v, index_t mi, index_t mj,
                   index_t mk, index_t sx, index_t su, index_t sv) {
  gemm_impl<SR, T, false>(x, u, v, nullptr, mi, mj, mk, sx, su, sv, 0, T{1});
}
#define GEP_INSTANTIATE_SEMIRING_TILE(SR, T)                                \
  template void semiring_tile<SR>(T*, const T*, const T*, index_t, index_t, \
                                  index_t, index_t, index_t, index_t)
GEP_INSTANTIATE_SEMIRING_TILE(MinPlus, double);
GEP_INSTANTIATE_SEMIRING_TILE(MinPlus, float);
GEP_INSTANTIATE_SEMIRING_TILE(MaxMin, double);
GEP_INSTANTIATE_SEMIRING_TILE(MaxMin, float);
GEP_INSTANTIATE_SEMIRING_TILE(OrAnd, std::uint8_t);
#undef GEP_INSTANTIATE_SEMIRING_TILE

}  // namespace gep::simd
