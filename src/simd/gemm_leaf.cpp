#include "simd/gemm_leaf.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "simd/microkernel.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

// k-chunk for panel packing. Leaf tiles are almost always <= this, so B
// packs exactly once per leaf call and is reused across all A panels.
constexpr index_t kGemmKc = kMaxPanelK;
static_assert(kGemmKc <= kMaxPanelK,
              "pack_a_scaled's reciprocal buffer is sized for kMaxPanelK");

// Grow-on-demand thread-local packing panels (index 0 = A, 1 = B):
// thread-local storage keeps the parallel typed engine's workers from
// sharing.
template <class T>
T* packing_buffer(int which, std::size_t count) {
  thread_local AlignedPtr<T> buf[2];
  thread_local std::size_t cap[2] = {0, 0};
  if (cap[which] < count) {
    buf[which] = make_aligned<T>(count);
    cap[which] = count;
  }
  return buf[which].get();
}

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
          ukr(kcb, alpha, pa + (ir / MR) * kcb * MR, pbj, x + ir * sx + jr,
              sx, std::min(MR, mi - ir), nr);
        }
      }
    }
  });
}

}  // namespace

void gemm_tile(double* x, const double* u, const double* v, index_t mi,
               index_t mj, index_t mk, index_t sx, index_t su, index_t sv,
               double alpha) {
  gemm_impl<PlusTimes, double, false>(x, u, v, nullptr, mi, mj, mk, sx, su,
                                      sv, 0, alpha);
}
void gemm_tile(float* x, const float* u, const float* v, index_t mi,
               index_t mj, index_t mk, index_t sx, index_t su, index_t sv,
               float alpha) {
  gemm_impl<PlusTimes, float, false>(x, u, v, nullptr, mi, mj, mk, sx, su,
                                     sv, 0, alpha);
}

void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, index_t mi, index_t mj, index_t mk,
                      index_t sx, index_t su, index_t sv, index_t sw) {
  gemm_impl<PlusTimes, double, true>(x, u, v, w, mi, mj, mk, sx, su, sv, sw,
                                     -1.0);
}
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, index_t mi, index_t mj, index_t mk,
                      index_t sx, index_t su, index_t sv, index_t sw) {
  gemm_impl<PlusTimes, float, true>(x, u, v, w, mi, mj, mk, sx, su, sv, sw,
                                    -1.0f);
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
