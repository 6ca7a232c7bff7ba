#include "simd/gemm_leaf.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "simd/microkernel.hpp"
#include "simd/strassen.hpp"

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
// fold; alpha only matters to PlusTimes).
template <template <class> class SR, class T, bool Scaled>
void gemm_impl(T* x, const T* u, const T* v, const T* w, index_t m,
               index_t sx, index_t su, index_t sv, index_t sw, T alpha) {
  with_ukr<SR, T>([&](auto tile, UkrFn<T> ukr) {
    constexpr index_t MR = decltype(tile)::MR;
    constexpr index_t NR = decltype(tile)::NR;
    const index_t kc = std::min(m, kGemmKc);
    T* pa = packing_buffer<T>(
        0, static_cast<std::size_t>(packed_a_size(MR, m, kc)));
    T* pb = packing_buffer<T>(
        1, static_cast<std::size_t>(packed_b_size(NR, kc, m)));
    for (index_t pc = 0; pc < m; pc += kc) {
      const index_t kcb = std::min(kc, m - pc);
      pack_b<NR>(v + pc * sv, sv, kcb, m, pb);
      if constexpr (Scaled) {
        pack_a_scaled<MR>(u + pc, su, m, kcb, w + pc * sw + pc, sw, pa);
      } else {
        pack_a<MR>(u + pc, su, m, kcb, pa);
      }
      for (index_t jr = 0; jr < m; jr += NR) {
        const index_t nr = std::min(NR, m - jr);
        const T* pbj = pb + (jr / NR) * kcb * NR;
        for (index_t ir = 0; ir < m; ir += MR) {
          const GemmDest<T> c{x + ir * sx + jr, T{1}};
          ukr(kcb, alpha, pa + (ir / MR) * kcb * MR, pbj, &c, 1, sx,
              std::min(MR, m - ir), nr);
        }
      }
    }
  });
}

}  // namespace

// Each entry point consults the Strassen layer first; it engages only
// above the measured crossover (strassen_min_m) and returns false
// otherwise, keeping sub-threshold leaves bit-identical to the classic
// packed path.
void gemm_tile(double* x, const double* u, const double* v, index_t m,
               index_t sx, index_t su, index_t sv, double alpha) {
  if (strassen_gemm(m, m, m, alpha, u, su, v, sv, x, sx)) return;
  gemm_impl<PlusTimes, double, false>(x, u, v, nullptr, m, sx, su, sv, 0,
                                      alpha);
}
void gemm_tile(float* x, const float* u, const float* v, index_t m,
               index_t sx, index_t su, index_t sv, float alpha) {
  if (strassen_gemm(m, m, m, alpha, u, su, v, sv, x, sx)) return;
  gemm_impl<PlusTimes, float, false>(x, u, v, nullptr, m, sx, su, sv, 0,
                                     alpha);
}

void gemm_tile_scaled(double* x, const double* u, const double* v,
                      const double* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  if (strassen_gemm_scaled(x, u, v, w, m, sx, su, sv, sw)) return;
  gemm_impl<PlusTimes, double, true>(x, u, v, w, m, sx, su, sv, sw, -1.0);
}
void gemm_tile_scaled(float* x, const float* u, const float* v,
                      const float* w, index_t m, index_t sx, index_t su,
                      index_t sv, index_t sw) {
  if (strassen_gemm_scaled(x, u, v, w, m, sx, su, sv, sw)) return;
  gemm_impl<PlusTimes, float, true>(x, u, v, w, m, sx, su, sv, sw, -1.0f);
}

template <template <class> class SR, class T>
void semiring_tile(T* x, const T* u, const T* v, index_t m, index_t sx,
                   index_t su, index_t sv) {
  gemm_impl<SR, T, false>(x, u, v, nullptr, m, sx, su, sv, 0, T{1});
}
#define GEP_INSTANTIATE_SEMIRING_TILE(SR, T)                              \
  template void semiring_tile<SR>(T*, const T*, const T*, index_t, index_t, \
                                  index_t, index_t)
GEP_INSTANTIATE_SEMIRING_TILE(MinPlus, double);
GEP_INSTANTIATE_SEMIRING_TILE(MinPlus, float);
GEP_INSTANTIATE_SEMIRING_TILE(MaxMin, double);
GEP_INSTANTIATE_SEMIRING_TILE(MaxMin, float);
GEP_INSTANTIATE_SEMIRING_TILE(OrAnd, std::uint8_t);
#undef GEP_INSTANTIATE_SEMIRING_TILE

}  // namespace gep::simd
