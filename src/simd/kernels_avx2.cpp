// Explicit AVX2/FMA base-case kernels and the AVX2 / AVX-512 GEMM
// micro-kernels.
//
// Compiled with per-function `target(...)` attributes so this TU builds
// under any -march (including the portable -DGEP_NATIVE_ARCH=OFF CI
// leg); callers only reach in here after simd::active() confirmed the
// host executes the ISA (>= Avx2 for the leaf kernels, == Avx512 for
// ukr_avx512).
//
// Correctness contracts (verified by tests/test_simd_kernels.cpp):
//  - fw / bottleneck / tc are BIT-EXACT vs the scalar templates: the
//    vector lanes perform the identical elementwise add/min/max/or, and
//    min/max operand order is chosen so ties resolve like std::min /
//    std::max (second operand = the old x value).
//  - ge / lu / mm and the micro-kernels use FMA, so they are
//    tolerance-equivalent to scalar (documented in docs/KERNELS.md) and
//    deterministic run-to-run at fixed dispatch. The AVX2 and AVX-512
//    micro-kernels agree bit for bit when alpha is ±1.
//  - No `restrict` across x/u/v/w: A/B/C-kind boxes alias. Per-row
//    sweeps are safe because a row-i sweep never overlaps the k-row /
//    k-column it reads (see the aliasing notes in gep/kernels.hpp).
#include "simd/kernels_avx2.hpp"

#if GEP_SIMD_X86

#include <immintrin.h>

#include "gep/numeric_guard.hpp"
#include "simd/microkernel.hpp"

#define GEP_AVX2_FN __attribute__((target("avx2,fma")))
#define GEP_AVX512_FN __attribute__((target("avx2,fma,avx512f")))

namespace gep::simd {
namespace {

// --- row primitives --------------------------------------------------------

// x[0..len) = min(x, t + v)  — elementwise, tie keeps x (std::min order).
GEP_AVX2_FN inline void minplus_row(double* x, const double* v, double t,
                                    index_t len) {
  const __m256d vt = _mm256_set1_pd(t);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d cand = _mm256_add_pd(vt, _mm256_loadu_pd(v + j));
    _mm256_storeu_pd(x + j, _mm256_min_pd(cand, _mm256_loadu_pd(x + j)));
  }
  for (; j < len; ++j) {
    const double cand = t + v[j];
    if (cand < x[j]) x[j] = cand;
  }
}

GEP_AVX2_FN inline void minplus_row(float* x, const float* v, float t,
                                    index_t len) {
  const __m256 vt = _mm256_set1_ps(t);
  index_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 cand = _mm256_add_ps(vt, _mm256_loadu_ps(v + j));
    _mm256_storeu_ps(x + j, _mm256_min_ps(cand, _mm256_loadu_ps(x + j)));
  }
  for (; j < len; ++j) {
    const float cand = t + v[j];
    if (cand < x[j]) x[j] = cand;
  }
}

// x[0..len) = max(x, min(t, v)) — tie orders match std::min/std::max.
GEP_AVX2_FN inline void maxmin_row(double* x, const double* v, double t,
                                   index_t len) {
  const __m256d vt = _mm256_set1_pd(t);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d cand = _mm256_min_pd(_mm256_loadu_pd(v + j), vt);
    _mm256_storeu_pd(x + j, _mm256_max_pd(cand, _mm256_loadu_pd(x + j)));
  }
  for (; j < len; ++j) {
    const double cand = v[j] < t ? v[j] : t;
    if (cand > x[j]) x[j] = cand;
  }
}

GEP_AVX2_FN inline void maxmin_row(float* x, const float* v, float t,
                                   index_t len) {
  const __m256 vt = _mm256_set1_ps(t);
  index_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 cand = _mm256_min_ps(_mm256_loadu_ps(v + j), vt);
    _mm256_storeu_ps(x + j, _mm256_max_ps(cand, _mm256_loadu_ps(x + j)));
  }
  for (; j < len; ++j) {
    const float cand = v[j] < t ? v[j] : t;
    if (cand > x[j]) x[j] = cand;
  }
}

// x[0..len) -= t * v[0..len)   (FMA, one rounding per element)
GEP_AVX2_FN inline void fnmadd_row(double* x, const double* v, double t,
                                   index_t len) {
  const __m256d vt = _mm256_set1_pd(t);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    _mm256_storeu_pd(
        x + j, _mm256_fnmadd_pd(vt, _mm256_loadu_pd(v + j),
                                _mm256_loadu_pd(x + j)));
  }
  for (; j < len; ++j) x[j] = __builtin_fma(-t, v[j], x[j]);
}

GEP_AVX2_FN inline void fnmadd_row(float* x, const float* v, float t,
                                   index_t len) {
  const __m256 vt = _mm256_set1_ps(t);
  index_t j = 0;
  for (; j + 8 <= len; j += 8) {
    _mm256_storeu_ps(
        x + j, _mm256_fnmadd_ps(vt, _mm256_loadu_ps(v + j),
                                _mm256_loadu_ps(x + j)));
  }
  for (; j < len; ++j) x[j] = __builtin_fmaf(-t, v[j], x[j]);
}

// x[0..len) += t * v[0..len)
GEP_AVX2_FN inline void fmadd_row(double* x, const double* v, double t,
                                  index_t len) {
  const __m256d vt = _mm256_set1_pd(t);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    _mm256_storeu_pd(
        x + j, _mm256_fmadd_pd(vt, _mm256_loadu_pd(v + j),
                               _mm256_loadu_pd(x + j)));
  }
  for (; j < len; ++j) x[j] = __builtin_fma(t, v[j], x[j]);
}

GEP_AVX2_FN inline void fmadd_row(float* x, const float* v, float t,
                                  index_t len) {
  const __m256 vt = _mm256_set1_ps(t);
  index_t j = 0;
  for (; j + 8 <= len; j += 8) {
    _mm256_storeu_ps(
        x + j, _mm256_fmadd_ps(vt, _mm256_loadu_ps(v + j),
                               _mm256_loadu_ps(x + j)));
  }
  for (; j < len; ++j) x[j] = __builtin_fmaf(t, v[j], x[j]);
}

// --- shared kernel bodies (double/float via template over row prims) -------

template <class T>
GEP_AVX2_FN void fw_impl(T* x, const T* u, const T* v, index_t m, index_t sx,
                         index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      minplus_row(x + i * sx, vk, u[i * su + k], m);
    }
  }
}

template <class T>
GEP_AVX2_FN void bottleneck_impl(T* x, const T* u, const T* v, index_t m,
                                 index_t sx, index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      maxmin_row(x + i * sx, vk, u[i * su + k], m);
    }
  }
}

template <class T>
GEP_AVX2_FN void ge_impl(T* x, const T* u, const T* v, const T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j) {
  for (index_t k = 0; k < m; ++k) {
    const T wkk = w[k * sw + k];
    const T* vk = v + k * sv;
    const index_t ilo = diag_i ? k + 1 : 0;
    const index_t jlo = diag_j ? k + 1 : 0;
    for (index_t i = ilo; i < m; ++i) {
      const T t = u[i * su + k] / wkk;
      fnmadd_row(x + i * sx + jlo, vk + jlo, t, m - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void lu_impl(T* x, const T* u, const T* v, T* w, index_t m,
                         index_t sx, index_t su, index_t sv, index_t sw,
                         bool diag_i, bool diag_j, const PivotGuard* guard,
                         index_t k_base) {
  for (index_t k = 0; k < m; ++k) {
    T wkk = w[k * sw + k];
    if (guard != nullptr && diag_j) {
      wkk = guard->admit(&w[k * sw + k], k_base + k,
                         /*boostable=*/diag_i && diag_j);
    }
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
      fnmadd_row(xi + jlo, vk + jlo, uik, m - jlo);
    }
  }
}

template <class T>
GEP_AVX2_FN void mm_impl(T* x, const T* u, const T* v, index_t m, index_t sx,
                         index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const T* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      fmadd_row(x + i * sx, vk, u[i * su + k], m);
    }
  }
}

}  // namespace

// --- GEMM micro-kernels ----------------------------------------------------
//
// The two vector instantiations of microkernel.hpp's ukr_tile. Each trait
// member carries its ISA's target attribute; ukr_tile itself has none and
// is always_inline, so it is compiled inside each targeted wrapper below
// and the trait calls inline there.

namespace {

template <class T>
struct Avx2Vec;

template <>
struct Avx2Vec<double> {
  using V = __m256d;
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
};

template <>
struct Avx2Vec<float> {
  using V = __m256;
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
};

template <class T>
struct Avx512Vec;

template <>
struct Avx512Vec<double> {
  using V = __m512d;
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
};

template <>
struct Avx512Vec<float> {
  using V = __m512;
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
};

}  // namespace

GEP_AVX2_FN void ukr_avx2(index_t kc, double alpha, const double* pa,
                          const double* pb, const GemmDest<double>* dst,
                          int nd, index_t ldc, index_t mr, index_t nr) {
  ukr_tile<Avx2Vec<double>, Avx2Tile<double>::MR, Avx2Tile<double>::NR>(
      kc, alpha, pa, pb, dst, nd, ldc, mr, nr);
}

GEP_AVX2_FN void ukr_avx2(index_t kc, float alpha, const float* pa,
                          const float* pb, const GemmDest<float>* dst, int nd,
                          index_t ldc, index_t mr, index_t nr) {
  ukr_tile<Avx2Vec<float>, Avx2Tile<float>::MR, Avx2Tile<float>::NR>(
      kc, alpha, pa, pb, dst, nd, ldc, mr, nr);
}

GEP_AVX512_FN void ukr_avx512(index_t kc, double alpha, const double* pa,
                              const double* pb, const GemmDest<double>* dst,
                              int nd, index_t ldc, index_t mr, index_t nr) {
  ukr_tile<Avx512Vec<double>, Avx512Tile<double>::MR,
           Avx512Tile<double>::NR>(kc, alpha, pa, pb, dst, nd, ldc, mr, nr);
}

GEP_AVX512_FN void ukr_avx512(index_t kc, float alpha, const float* pa,
                              const float* pb, const GemmDest<float>* dst,
                              int nd, index_t ldc, index_t mr, index_t nr) {
  ukr_tile<Avx512Vec<float>, Avx512Tile<float>::MR, Avx512Tile<float>::NR>(
      kc, alpha, pa, pb, dst, nd, ldc, mr, nr);
}

// --- leaf kernels ----------------------------------------------------------

GEP_AVX2_FN void fw_avx2(double* x, const double* u, const double* v,
                         index_t m, index_t sx, index_t su, index_t sv) {
  fw_impl(x, u, v, m, sx, su, sv);
}
GEP_AVX2_FN void fw_avx2(float* x, const float* u, const float* v, index_t m,
                         index_t sx, index_t su, index_t sv) {
  fw_impl(x, u, v, m, sx, su, sv);
}

GEP_AVX2_FN void bottleneck_avx2(double* x, const double* u, const double* v,
                                 index_t m, index_t sx, index_t su,
                                 index_t sv) {
  bottleneck_impl(x, u, v, m, sx, su, sv);
}
GEP_AVX2_FN void bottleneck_avx2(float* x, const float* u, const float* v,
                                 index_t m, index_t sx, index_t su,
                                 index_t sv) {
  bottleneck_impl(x, u, v, m, sx, su, sv);
}

GEP_AVX2_FN void tc_avx2(std::uint8_t* x, const std::uint8_t* u,
                         const std::uint8_t* v, index_t m, index_t sx,
                         index_t su, index_t sv) {
  for (index_t k = 0; k < m; ++k) {
    const std::uint8_t* vk = v + k * sv;
    for (index_t i = 0; i < m; ++i) {
      if (!u[i * su + k]) continue;
      std::uint8_t* xi = x + i * sx;
      index_t j = 0;
      for (; j + 32 <= m; j += 32) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xi + j));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(vk + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(xi + j),
                            _mm256_or_si256(a, b));
      }
      for (; j < m; ++j) xi[j] = static_cast<std::uint8_t>(xi[j] | vk[j]);
    }
  }
}

GEP_AVX2_FN void ge_avx2(double* x, const double* u, const double* v,
                         const double* w, index_t m, index_t sx, index_t su,
                         index_t sv, index_t sw, bool diag_i, bool diag_j) {
  ge_impl(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
}
GEP_AVX2_FN void ge_avx2(float* x, const float* u, const float* v,
                         const float* w, index_t m, index_t sx, index_t su,
                         index_t sv, index_t sw, bool diag_i, bool diag_j) {
  ge_impl(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j);
}

GEP_AVX2_FN void lu_avx2(double* x, const double* u, const double* v,
                         double* w, index_t m, index_t sx, index_t su,
                         index_t sv, index_t sw, bool diag_i, bool diag_j,
                         const PivotGuard* guard, index_t k_base) {
  lu_impl(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j, guard, k_base);
}
GEP_AVX2_FN void lu_avx2(float* x, const float* u, const float* v, float* w,
                         index_t m, index_t sx, index_t su, index_t sv,
                         index_t sw, bool diag_i, bool diag_j,
                         const PivotGuard* guard, index_t k_base) {
  lu_impl(x, u, v, w, m, sx, su, sv, sw, diag_i, diag_j, guard, k_base);
}

GEP_AVX2_FN void mm_avx2(double* x, const double* u, const double* v,
                         index_t m, index_t sx, index_t su, index_t sv) {
  mm_impl(x, u, v, m, sx, su, sv);
}
GEP_AVX2_FN void mm_avx2(float* x, const float* u, const float* v, index_t m,
                         index_t sx, index_t su, index_t sv) {
  mm_impl(x, u, v, m, sx, su, sv);
}

}  // namespace gep::simd

#endif  // GEP_SIMD_X86
