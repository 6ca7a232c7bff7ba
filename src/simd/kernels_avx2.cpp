// Explicit AVX2/FMA base-case kernels and the AVX2 / AVX-512
// instantiations of the semiring micro-kernel.
//
// Compiled with per-function `target(...)` attributes so this TU builds
// under any -march (including the portable -DGEP_NATIVE_ARCH=OFF CI
// leg); callers only reach in here after simd::active() confirmed the
// host executes the ISA (>= Avx2 for the leaf kernels and ukr_avx2,
// == Avx512 for ukr_avx512).
//
// Correctness contracts (verified by tests/test_simd_kernels.cpp):
//  - The min-plus, max-min and or-and micro-kernels are BIT-EXACT vs G:
//    each lane runs the same add / min / max / and / or as the scalar
//    update, and the trait's min / max keep the x86 operand order (the
//    second operand wins ties), which the semiring policies use so that
//    the old value wins, as with std::min / std::max in G.
//  - ge / lu / mm and the (+, x) micro-kernel use FMA, so they are
//    tolerance-equivalent to scalar (documented in docs/KERNELS.md) and
//    deterministic run-to-run at fixed dispatch. The AVX2 and AVX-512
//    micro-kernels agree bit for bit when alpha is ±1.
//  - No `restrict` across x/u/v/w: A/B/C-kind boxes alias. Per-row
//    sweeps are safe because a row-i sweep never overlaps the k-row /
//    k-column it reads (see the aliasing notes in gep/kernels.hpp).
#include "simd/kernels_avx2.hpp"

#if GEP_SIMD_X86

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "gep/numeric_guard.hpp"
#include "simd/microkernel.hpp"

// The semiring policies of microkernel.hpp return vectors and have no
// target attribute of their own; GCC checks their ABI at the end of the
// TU, past that header's -Wpsabi suppression. Every such call inlines.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace gep::simd {

// --- vector traits ---------------------------------------------------------
//
// The traits of microkernel.hpp's ukr_tile (and of fmadd_row below).
// Each member carries its ISA's target attribute; ukr_tile and the
// semiring policies have none and are always_inline, so they compile
// inside each targeted ukr_avx2 / ukr_avx512 below and the trait calls
// inline there.

namespace {

template <class T>
struct Avx2Vec;

template <>
struct Avx2Vec<double> {
  using V = __m256d;
  using E = double;
  static constexpr index_t kLanes = 4;
  GEP_AVX2_FN static V zero() { return _mm256_setzero_pd(); }
  GEP_AVX2_FN static V set1(double s) { return _mm256_set1_pd(s); }
  GEP_AVX2_FN static V broadcast(const double* p) {
    return _mm256_broadcast_sd(p);
  }
  GEP_AVX2_FN static V load(const double* p) { return _mm256_loadu_pd(p); }
  GEP_AVX2_FN static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  GEP_AVX2_FN static __m256i mask(index_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  GEP_AVX2_FN static V load_n(const double* p, index_t n) {
    return _mm256_maskload_pd(p, mask(n));
  }
  GEP_AVX2_FN static void store_n(double* p, V v, index_t n) {
    _mm256_maskstore_pd(p, mask(n), v);
  }
  GEP_AVX2_FN static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  GEP_AVX2_FN static V add(V a, V b) { return _mm256_add_pd(a, b); }
  GEP_AVX2_FN static V min(V p, V q) { return _mm256_min_pd(p, q); }
  GEP_AVX2_FN static V max(V p, V q) { return _mm256_max_pd(p, q); }
};

template <>
struct Avx2Vec<float> {
  using V = __m256;
  using E = float;
  static constexpr index_t kLanes = 8;
  GEP_AVX2_FN static V zero() { return _mm256_setzero_ps(); }
  GEP_AVX2_FN static V set1(float s) { return _mm256_set1_ps(s); }
  GEP_AVX2_FN static V broadcast(const float* p) {
    return _mm256_broadcast_ss(p);
  }
  GEP_AVX2_FN static V load(const float* p) { return _mm256_loadu_ps(p); }
  GEP_AVX2_FN static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  GEP_AVX2_FN static __m256i mask(index_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  GEP_AVX2_FN static V load_n(const float* p, index_t n) {
    return _mm256_maskload_ps(p, mask(n));
  }
  GEP_AVX2_FN static void store_n(float* p, V v, index_t n) {
    _mm256_maskstore_ps(p, mask(n), v);
  }
  GEP_AVX2_FN static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  GEP_AVX2_FN static V add(V a, V b) { return _mm256_add_ps(a, b); }
  GEP_AVX2_FN static V min(V p, V q) { return _mm256_min_ps(p, q); }
  GEP_AVX2_FN static V max(V p, V q) { return _mm256_max_ps(p, q); }
};

// min / max go through the all-lanes mask form: GCC 12 builds the plain
// intrinsics on an "undefined" pass-through that -Wmaybe-uninitialized
// flags; the mask is all ones, so the instruction is the same.
template <class T>
struct Avx512Vec;

template <>
struct Avx512Vec<double> {
  using V = __m512d;
  using E = double;
  static constexpr index_t kLanes = 8;
  GEP_AVX512_FN static V zero() { return _mm512_setzero_pd(); }
  GEP_AVX512_FN static V set1(double s) { return _mm512_set1_pd(s); }
  GEP_AVX512_FN static V broadcast(const double* p) {
    return _mm512_set1_pd(*p);
  }
  GEP_AVX512_FN static V load(const double* p) { return _mm512_loadu_pd(p); }
  GEP_AVX512_FN static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  GEP_AVX512_FN static V load_n(const double* p, index_t n) {
    return _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << n) - 1), p);
  }
  GEP_AVX512_FN static void store_n(double* p, V v, index_t n) {
    _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << n) - 1), v);
  }
  GEP_AVX512_FN static V fma(V a, V b, V c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  GEP_AVX512_FN static V add(V a, V b) { return _mm512_add_pd(a, b); }
  GEP_AVX512_FN static V min(V p, V q) {
    return _mm512_mask_min_pd(p, static_cast<__mmask8>(-1), p, q);
  }
  GEP_AVX512_FN static V max(V p, V q) {
    return _mm512_mask_max_pd(p, static_cast<__mmask8>(-1), p, q);
  }
};

template <>
struct Avx512Vec<float> {
  using V = __m512;
  using E = float;
  static constexpr index_t kLanes = 16;
  GEP_AVX512_FN static V zero() { return _mm512_setzero_ps(); }
  GEP_AVX512_FN static V set1(float s) { return _mm512_set1_ps(s); }
  GEP_AVX512_FN static V broadcast(const float* p) {
    return _mm512_set1_ps(*p);
  }
  GEP_AVX512_FN static V load(const float* p) { return _mm512_loadu_ps(p); }
  GEP_AVX512_FN static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  GEP_AVX512_FN static V load_n(const float* p, index_t n) {
    return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1), p);
  }
  GEP_AVX512_FN static void store_n(float* p, V v, index_t n) {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1), v);
  }
  GEP_AVX512_FN static V fma(V a, V b, V c) {
    return _mm512_fmadd_ps(a, b, c);
  }
  GEP_AVX512_FN static V add(V a, V b) { return _mm512_add_ps(a, b); }
  GEP_AVX512_FN static V min(V p, V q) {
    return _mm512_mask_min_ps(p, static_cast<__mmask16>(-1), p, q);
  }
  GEP_AVX512_FN static V max(V p, V q) {
    return _mm512_mask_max_ps(p, static_cast<__mmask16>(-1), p, q);
  }
};

// Bytes, for or-and. AVX2 has no byte-masked load or store, so a fringe
// of n bytes moves as n / 4 masked dwords plus a 0-3 byte tail through
// the low lanes of an xmm register, with no stack buffer and no general
// register in between.
GEP_AVX2_FN inline __m128i load_tail(const std::uint8_t* p, index_t r) {
  __m128i x = _mm_setzero_si128();
  if (r > 0) x = _mm_insert_epi8(x, p[0], 0);
  if (r > 1) x = _mm_insert_epi8(x, p[1], 1);
  if (r > 2) x = _mm_insert_epi8(x, p[2], 2);
  return x;
}
GEP_AVX2_FN inline void store_tail(std::uint8_t* p, __m128i x, index_t r) {
  if (r > 0) p[0] = static_cast<std::uint8_t>(_mm_extract_epi8(x, 0));
  if (r > 1) p[1] = static_cast<std::uint8_t>(_mm_extract_epi8(x, 1));
  if (r > 2) p[2] = static_cast<std::uint8_t>(_mm_extract_epi8(x, 2));
}

template <>
struct Avx2Vec<std::uint8_t> {
  using V = __m256i;
  using E = std::uint8_t;
  static constexpr index_t kLanes = 32;
  GEP_AVX2_FN static V zero() { return _mm256_setzero_si256(); }
  GEP_AVX2_FN static V set1(E s) {
    return _mm256_set1_epi8(static_cast<char>(s));
  }
  GEP_AVX2_FN static V broadcast(const E* p) { return set1(*p); }
  GEP_AVX2_FN static V load(const E* p) {
    return _mm256_loadu_si256(reinterpret_cast<const V*>(p));
  }
  GEP_AVX2_FN static void store(E* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<V*>(p), v);
  }
  // Lanes below dword d (whole dwords) and at it (the tail's lane).
  GEP_AVX2_FN static V below(index_t d) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(d)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  GEP_AVX2_FN static V at(index_t d) {
    return _mm256_cmpeq_epi32(_mm256_set1_epi32(static_cast<int>(d)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  GEP_AVX2_FN static V load_n(const E* p, index_t n) {
    const index_t d = n / 4;
    const V lo = _mm256_maskload_epi32(reinterpret_cast<const int*>(p),
                                       below(d));
    return _mm256_blendv_epi8(
        lo, _mm256_broadcastd_epi32(load_tail(p + 4 * d, n % 4)), at(d));
  }
  GEP_AVX2_FN static void store_n(E* p, V v, index_t n) {
    const index_t d = n / 4;
    _mm256_maskstore_epi32(reinterpret_cast<int*>(p), below(d), v);
    store_tail(p + 4 * d,
               _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                   v, _mm256_set1_epi32(static_cast<int>(d)))),
               n % 4);
  }
  GEP_AVX2_FN static V bit_or(V a, V b) { return _mm256_or_si256(a, b); }
  GEP_AVX2_FN static V bit_and(V a, V b) { return _mm256_and_si256(a, b); }
};

// AVX-512F has no byte broadcast or byte mask of its own (that is
// AVX-512BW), so bytes keep the 256-bit trait at Avx512 too.
template <>
struct Avx512Vec<std::uint8_t> : Avx2Vec<std::uint8_t> {};

// --- row primitive ---------------------------------------------------------

// x[0..len) += t * v[0..len), one rounding per element (FMA); the GE and
// LU sweeps subtract by passing -t, which fma(-t, v, x) rounds exactly
// as fnmadd(t, v, x) would.
template <class T>
GEP_AVX2_FN inline void fmadd_row(T* x, const T* v, T t, index_t len) {
  using Vec = Avx2Vec<T>;
  const typename Vec::V vt = Vec::set1(t);
  index_t j = 0;
  for (; j + Vec::kLanes <= len; j += Vec::kLanes) {
    Vec::store(x + j, Vec::fma(vt, Vec::load(v + j), Vec::load(x + j)));
  }
  for (; j < len; ++j) x[j] = std::fma(t, v[j], x[j]);
}

// --- ge / lu / mm leaf bodies ----------------------------------------------

template <class T>
GEP_AVX2_FN void ge_impl(T* x, const T* u, const T* v, const T* w, index_t mi,
                         index_t mj, index_t mk, index_t sx, index_t su,
                         index_t sv, index_t sw, bool diag_i, bool diag_j) {
  for (index_t k = 0; k < mk; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < mi; ++i) {
      const T t = u[i * su + k] / wkk;
      fmadd_row(x + i * sx + jlo, vk + jlo, -t, mj - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void lu_impl(T* x, const T* u, const T* v, T* w, index_t mi,
                         index_t mj, index_t mk, index_t sx, index_t su,
                         index_t sv, index_t sw, bool diag_i, bool diag_j,
                         const PivotGuard* guard, index_t k_base) {
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
      fmadd_row(xi + jlo, vk + jlo, -uik, mj - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void mm_impl(T* x, const T* u, const T* v, index_t mi, index_t mj,
                         index_t mk, index_t sx, index_t su, index_t sv) {
  for (index_t k = 0; k < mk; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < mi; ++i) {
      fmadd_row(x + i * sx, vk, u[i * su + k], mj);
    }
  }
}

}  // namespace

template <template <class> class SR, class T>
GEP_AVX2_FN void ukr_avx2(index_t kc, T alpha, const T* pa, const T* pb,
                          T* c, index_t ldc, index_t mr, index_t nr) {
  using Sh = Avx2Shape<SR, T>;
  ukr_tile<Avx2Vec<T>, SR, Sh::MR, Sh::NR>(kc, alpha, pa, pb, c, ldc, mr, nr);
}

template <template <class> class SR, class T>
GEP_AVX512_FN void ukr_avx512(index_t kc, T alpha, const T* pa, const T* pb,
                              T* c, index_t ldc, index_t mr, index_t nr) {
  using Sh = Avx512Shape<SR, T>;
  ukr_tile<Avx512Vec<T>, SR, Sh::MR, Sh::NR>(kc, alpha, pa, pb, c, ldc, mr,
                                             nr);
}

#define GEP_INSTANTIATE_UKR(SR, T)                                        \
  template void ukr_avx2<SR, T>(index_t, T, const T*, const T*, T*,       \
                                index_t, index_t, index_t);               \
  template void ukr_avx512<SR, T>(index_t, T, const T*, const T*, T*,     \
                                  index_t, index_t, index_t)
GEP_INSTANTIATE_UKR(PlusTimes, double);
GEP_INSTANTIATE_UKR(PlusTimes, float);
GEP_INSTANTIATE_UKR(MinPlus, double);
GEP_INSTANTIATE_UKR(MinPlus, float);
GEP_INSTANTIATE_UKR(MaxMin, double);
GEP_INSTANTIATE_UKR(MaxMin, float);
GEP_INSTANTIATE_UKR(OrAnd, std::uint8_t);
#undef GEP_INSTANTIATE_UKR

// --- leaf kernels ----------------------------------------------------------

GEP_AVX2_FN void ge_avx2(double* x, const double* u, const double* v,
                         const double* w, index_t mi, index_t mj, index_t mk,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j) {
  ge_impl(x, u, v, w, mi, mj, mk, sx, su, sv, sw, diag_i, diag_j);
}
GEP_AVX2_FN void ge_avx2(float* x, const float* u, const float* v,
                         const float* w, index_t mi, index_t mj, index_t mk,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j) {
  ge_impl(x, u, v, w, mi, mj, mk, sx, su, sv, sw, diag_i, diag_j);
}

GEP_AVX2_FN void lu_avx2(double* x, const double* u, const double* v,
                         double* w, index_t mi, index_t mj, index_t mk,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j, const PivotGuard* guard,
                         index_t k_base) {
  lu_impl(x, u, v, w, mi, mj, mk, sx, su, sv, sw, diag_i, diag_j, guard,
          k_base);
}
GEP_AVX2_FN void lu_avx2(float* x, const float* u, const float* v, float* w,
                         index_t mi, index_t mj, index_t mk, index_t sx,
                         index_t su, index_t sv, index_t sw, bool diag_i,
                         bool diag_j, const PivotGuard* guard,
                         index_t k_base) {
  lu_impl(x, u, v, w, mi, mj, mk, sx, su, sv, sw, diag_i, diag_j, guard,
          k_base);
}

GEP_AVX2_FN void mm_avx2(double* x, const double* u, const double* v,
                         index_t mi, index_t mj, index_t mk, index_t sx,
                         index_t su, index_t sv) {
  mm_impl(x, u, v, mi, mj, mk, sx, su, sv);
}
GEP_AVX2_FN void mm_avx2(float* x, const float* u, const float* v,
                         index_t mi, index_t mj, index_t mk, index_t sx,
                         index_t su, index_t sv) {
  mm_impl(x, u, v, mi, mj, mk, sx, su, sv);
}

}  // namespace gep::simd

#endif  // GEP_SIMD_X86
