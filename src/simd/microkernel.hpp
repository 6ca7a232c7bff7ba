// Shared register-blocked micro-kernel layer (BLIS-style).
//
// One packing format and one micro-kernel template, over a semiring,
// serve the cache-aware BLAS baseline (blas/dgemm.cpp), the typed
// engine's D-kind leaves of every semiring (simd/gemm_leaf.*): A blocks
// are packed into MR-row column panels, B blocks into NR-column row
// panels, both zero-padded to full micro-tile width so the accumulation
// loop never sees a fringe.
//
// The register tile is shaped to the ISA (with_ukr picks it from the
// active dispatch level):
//   - scalar / AVX2: MR x NR = 6 x 8 double, 6 x 16 float — 12 ymm
//     accumulators + 2 B vectors + 1 broadcast, the AVX2 analogue of
//     BLIS's Haswell dgemm kernel — and 6 x 32 bytes;
//   - AVX-512: 8 x 16 double, 8 x 32 float — 16 zmm accumulators, which
//     tile the 64-wide typed leaves exactly; bytes keep the AVX2 tile.
// The pack functions therefore take MR / NR as template parameters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "matrix/matrix.hpp"
#include "simd/dispatch.hpp"

namespace gep::simd {

// Register-tile shape of one micro-kernel instantiation.
template <index_t MR_, index_t NR_>
struct Tile {
  static constexpr index_t MR = MR_;
  static constexpr index_t NR = NR_;
};

// Packs an mc x kc block of row-major A (leading dimension lda) into
// MR-wide column panels: panel p0 holds rows [p0*MR, p0*MR+MR) laid out
// column-by-column, short panels zero-padded.
template <index_t MR, class T>
void pack_a(const T* a, index_t lda, index_t mc, index_t kc, T* dst) {
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      for (index_t i = 0; i < MR; ++i) {
        *dst++ = (i < mr) ? a[(i0 + i) * lda + p] : T{};
      }
    }
  }
}

// Largest k-extent a single pack_a_scaled call accepts (= the k-chunk
// the leaf GEMM blocks by; gemm_leaf.cpp asserts it never exceeds this).
inline constexpr index_t kMaxPanelK = 256;

// pack_a with the Gaussian-elimination multiplier fold: packs
// a[i][p] * (1 / w[p][p]) (w strided by sw), so a D-kind GE leaf
// becomes the pure GEMM x -= t * v. The reciprocal is hoisted — kc
// divisions instead of the scalar kernel's mc * kc — which changes each
// multiplier by at most one ulp relative to the scalar division; the
// GE kernels are tolerance-equivalent (not bit-exact) across dispatch
// levels precisely to license this (see docs/KERNELS.md).
template <index_t MR, class T>
void pack_a_scaled(const T* a, index_t lda, index_t mc, index_t kc,
                   const T* w, index_t sw, T* dst) {
  T inv[kMaxPanelK];
  for (index_t p = 0; p < kc; ++p) inv[p] = T{1} / w[p * sw + p];
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min(MR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      const T t = inv[p];
      for (index_t i = 0; i < MR; ++i) {
        *dst++ = (i < mr) ? a[(i0 + i) * lda + p] * t : T{};
      }
    }
  }
}

// Row-chunk size for pack_b traversal: strip-outer order alone reads NR
// elements then jumps a whole row stride (TLB-miss per touch on large
// ldb), row-outer order alone scatters writes across every panel.
// Chunking kPackBRows rows and sweeping panels inside the chunk keeps
// the source slab cache-resident across panels and each panel's write
// run sequential — ~25% faster than either pure order at ldb = 1024,
// and within ~25% of this-host memcpy bandwidth (the practical floor).
inline constexpr index_t kPackBRows = 32;

// Packs a kc x nc block of row-major B (leading dimension ldb) into
// NR-column row panels, zero-padded.
template <index_t NR, class T>
void pack_b(const T* b, index_t ldb, index_t kc, index_t nc, T* dst) {
  for (index_t p0 = 0; p0 < kc; p0 += kPackBRows) {
    const index_t pe = std::min(p0 + kPackBRows, kc);
    for (index_t j0 = 0; j0 < nc; j0 += NR) {
      const index_t nr = std::min(NR, nc - j0);
      T* dp = dst + (j0 / NR) * kc * NR + p0 * NR;
      if (nr == NR) {
        for (index_t p = p0; p < pe; ++p, dp += NR) {
          const T* bp = b + p * ldb + j0;
          for (index_t j = 0; j < NR; ++j) dp[j] = bp[j];
        }
      } else {
        for (index_t p = p0; p < pe; ++p, dp += NR) {
          const T* bp = b + p * ldb + j0;
          for (index_t j = 0; j < nr; ++j) dp[j] = bp[j];
          for (index_t j = nr; j < NR; ++j) dp[j] = T{};
        }
      }
    }
  }
}

// Number of packed elements pack_a / pack_b emit for an mc x kc (resp.
// kc x nc) block — buffer sizing for callers.
constexpr index_t packed_a_size(index_t mr, index_t mc, index_t kc) {
  return ((mc + mr - 1) / mr) * mr * kc;
}
constexpr index_t packed_b_size(index_t nr, index_t kc, index_t nc) {
  return ((nc + nr - 1) / nr) * nr * kc;
}

// --- semirings ---------------------------------------------------------------
//
// A semiring policy SR<Vec> is written once over a vector trait Vec (the
// members ukr_tile also uses, plus add / min / max / bit_or / bit_and)
// and supplies the three things the micro-kernel varies on:
//   id()               the accumulator identity
//   step(acc, a, b)    one k-step, acc (+)= a (x) b
//   combine(s, acc, c) the writeback of a finished accumulator into c
// Vec::min(p, q) is `p < q ? p : q` and Vec::max(p, q) is `p > q ? p : q`
// (the x86 minp / maxp operand order), so in every step and combine
// below the old value (acc, then c) wins ties, as in G's update
// std::min(x, u + v). A box whose x is disjoint from u and v can thus
// take the min / max / or over a k-chunk first and fold it into x once:
// each u + v rounds as in G, and min, max and or are exact, so the bits
// equal G's order. step(x, u, v) is G's update itself, which is what the
// straight-line scalar template (gep::scalar::kernel_semiring) runs.
//
// The policies and ukr_tile have no target attribute of their own: a
// vector instantiation is only ever inlined into a wrapper that has one
// (kernels_avx2.cpp), and the trait calls inline there. Portable builds
// would still note that their vector returns "change the ABI"
// (-Wpsabi): no such call survives inlining, so the note is silenced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// (+, x): the GEMM, with one rounding per k-step (explicit fma).
template <class Vec>
struct PlusTimes {
  using V = typename Vec::V;
  [[gnu::always_inline]] static V id() { return Vec::zero(); }
  [[gnu::always_inline]] static V step(V acc, V a, V b) {
    return Vec::fma(a, b, acc);
  }
  [[gnu::always_inline]] static V combine(V s, V acc, V c) {
    return Vec::fma(s, acc, c);
  }
};

// (min, +): Floyd-Warshall.
template <class Vec>
struct MinPlus {
  using V = typename Vec::V;
  [[gnu::always_inline]] static V id() {
    return Vec::set1(std::numeric_limits<typename Vec::E>::infinity());
  }
  [[gnu::always_inline]] static V step(V acc, V a, V b) {
    return Vec::min(Vec::add(a, b), acc);
  }
  [[gnu::always_inline]] static V combine(V, V acc, V c) {
    return Vec::min(acc, c);
  }
};

// (max, min): bottleneck paths. The identity is -inf, not lowest(): a
// chunk whose every candidate is -inf must leave an x of -inf alone.
template <class Vec>
struct MaxMin {
  using V = typename Vec::V;
  [[gnu::always_inline]] static V id() {
    return Vec::set1(-std::numeric_limits<typename Vec::E>::infinity());
  }
  [[gnu::always_inline]] static V step(V acc, V a, V b) {
    return Vec::max(Vec::min(b, a), acc);
  }
  [[gnu::always_inline]] static V combine(V, V acc, V c) {
    return Vec::max(acc, c);
  }
};

// (or, and) over bytes: transitive closure.
template <class Vec>
struct OrAnd {
  using V = typename Vec::V;
  [[gnu::always_inline]] static V id() { return Vec::zero(); }
  [[gnu::always_inline]] static V step(V acc, V a, V b) {
    return Vec::bit_or(acc, Vec::bit_and(a, b));
  }
  [[gnu::always_inline]] static V combine(V, V acc, V c) {
    return Vec::bit_or(c, acc);
  }
};

// --- the micro-kernel template ---------------------------------------------
//
// One micro-tile product over semiring SR, written back as
// c = combine(alpha, acc, c) with acc the SR-sum over p of pa^T (x) pb;
// only the valid mr x nr corner of c is read or written (the packed
// panels' zero padding never reaches c). `Vec` is a per-ISA vector trait:
//   V, E, kLanes                    register type, element type, lanes
//   zero(), set1(s), broadcast(p)   splats
//   load(p), store(p, v)            unaligned full-width access
//   load_n(p, n), store_n(p, v, n)  the first n < kLanes lanes only
//   fma(a, b, c)                    a * b + c, one rounding (explicit
//                                   FMA) in the vector traits
//   add, min, max, bit_or, bit_and  as the semirings above use them
// Every loop over the tile is fully unrolled (`#pragma GCC unroll`), so
// each accumulator index is a compile-time constant and acc[][] lives in
// registers: a runtime index (say an `i < mr` loop over acc) would force
// the array onto the stack and make every k-step store all of it.
// Per element the result is combine(alpha, step chain over p, c) with
// the same chain for every shape, so instantiations that see the same kc
// agree bit for bit (for PlusTimes whenever alpha is ±1).
template <class Vec, template <class> class SR, index_t MR, index_t NR,
          class T>
[[gnu::always_inline]] inline void ukr_tile(index_t kc, T alpha,
                                            const T* __restrict pa,
                                            const T* __restrict pb,
                                            T* c, index_t ldc, index_t mr,
                                            index_t nr) {
  using V = typename Vec::V;
  using S = SR<Vec>;
  constexpr index_t L = Vec::kLanes;
  constexpr index_t NV = NR / L;
  static_assert(NR % L == 0, "NR must be a whole number of vectors");
  // Early RFO prefetch of every destination row, hidden behind the k-loop.
  for (index_t i = 0; i < mr; ++i) __builtin_prefetch(c + i * ldc, 1, 3);
  V acc[MR][NV];
#pragma GCC unroll 16
  for (index_t i = 0; i < MR; ++i) {
#pragma GCC unroll 16
    for (index_t v = 0; v < NV; ++v) acc[i][v] = S::id();
  }
  for (index_t p = 0; p < kc; ++p) {
    V b[NV];
#pragma GCC unroll 16
    for (index_t v = 0; v < NV; ++v) b[v] = Vec::load(pb + p * NR + v * L);
    const T* a = pa + p * MR;
#pragma GCC unroll 16
    for (index_t i = 0; i < MR; ++i) {
      const V ai = Vec::broadcast(a + i);
#pragma GCC unroll 16
      for (index_t v = 0; v < NV; ++v) {
        acc[i][v] = S::step(acc[i][v], ai, b[v]);
      }
    }
  }
  const bool full = mr == MR && nr == NR;
  const V s = Vec::set1(alpha);
#pragma GCC unroll 16
  for (index_t i = 0; i < MR; ++i) {
    if (!full && i >= mr) continue;
    T* ci = c + i * ldc;
#pragma GCC unroll 16
    for (index_t v = 0; v < NV; ++v) {
      const index_t n = full ? L : nr - v * L;
      T* cv = ci + v * L;
      if (n >= L) {
        Vec::store(cv, S::combine(s, acc[i][v], Vec::load(cv)));
      } else if (n > 0) {
        Vec::store_n(cv, S::combine(s, acc[i][v], Vec::load_n(cv, n)), n);
      }
    }
  }
}
#pragma GCC diagnostic pop

// One-lane trait: the scalar reference instantiation, for hosts without
// AVX2 and the $GEP_FORCE_SCALAR leg, and the trait of the straight-line
// semiring template. Its fma is a plain multiply-add that the compiler
// may contract, like the scalar leaf templates.
template <class T>
struct ScalarVec {
  using V = T;
  using E = T;
  static constexpr index_t kLanes = 1;
  static V zero() { return T{}; }
  static V set1(T s) { return s; }
  static V broadcast(const T* p) { return *p; }
  static V load(const T* p) { return *p; }
  static V load_n(const T* p, index_t) { return *p; }
  static void store(T* p, V v) { *p = v; }
  static void store_n(T* p, V v, index_t) { *p = v; }
  static V fma(V a, V b, V c) { return a * b + c; }
  static V add(V a, V b) { return a + b; }
  static V min(V p, V q) { return p < q ? p : q; }
  static V max(V p, V q) { return p > q ? p : q; }
  static V bit_or(V a, V b) { return static_cast<T>(a | b); }
  static V bit_and(V a, V b) { return static_cast<T>(a & b); }
};

// The signature of every micro-kernel instantiation (alpha only
// matters to PlusTimes).
template <class T>
using UkrFn = void (*)(index_t kc, T alpha, const T* pa, const T* pb, T* c,
                       index_t ldc, index_t mr, index_t nr);

// Register tile per (ISA, semiring, element type): two vectors of B per
// k-step unless specialized. Min-plus and max-min need a temporary per
// update beside the 12 ymm accumulators of the AVX2 6 x 8 tile;
// tools/check_ukr_spills.py confirms the k-loops stay in registers.
template <template <class> class SR, class T>
struct Avx2Shape : Tile<6, 64 / sizeof(T)> {};
template <template <class> class SR, class T>
struct Avx512Shape : Tile<8, 128 / sizeof(T)> {};
// Or-and's 6 x 64 byte tile spilled once GCC unrolled its k-loop, so it
// keeps one ymm of B, at Avx512 too (bytes stay 256-bit there).
template <>
struct Avx2Shape<OrAnd, std::uint8_t> : Tile<6, 32> {};
template <>
struct Avx512Shape<OrAnd, std::uint8_t> : Avx2Shape<OrAnd, std::uint8_t> {};

template <template <class> class SR, class T>
void ukr_scalar(index_t kc, T alpha, const T* pa, const T* pb, T* c,
                index_t ldc, index_t mr, index_t nr) {
  using Sh = Avx2Shape<SR, T>;
  ukr_tile<ScalarVec<T>, SR, Sh::MR, Sh::NR>(kc, alpha, pa, pb, c, ldc, mr,
                                             nr);
}

#if GEP_SIMD_X86
// The AVX2 (Avx2Shape) and AVX-512 (Avx512Shape) instantiations,
// compiled with target attributes in kernels_avx2.cpp for PlusTimes over
// double and float, MinPlus and MaxMin over double and float, and OrAnd
// over bytes; callers must have checked the dispatch level, as with_ukr
// does.
template <template <class> class SR, class T>
GEP_AVX2_FN void ukr_avx2(index_t kc, T alpha, const T* pa, const T* pb,
                          T* c, index_t ldc, index_t mr, index_t nr);
template <template <class> class SR, class T>
GEP_AVX512_FN void ukr_avx512(index_t kc, T alpha, const T* pa, const T* pb,
                              T* c, index_t ldc, index_t mr, index_t nr);
#endif

// Calls f(tile, ukr) with the active dispatch level's micro-kernel for
// semiring SR and its register-tile shape (a Tile<MR, NR> value): the
// one place the packed macro loops (gemm_leaf.cpp, blas/dgemm.cpp)
// consult the level. The scalar kernel uses the AVX2 shape.
template <template <class> class SR, class T, class F>
void with_ukr(F&& f) {
#if GEP_SIMD_X86
  switch (active()) {
    case Level::Avx512:
      f(Avx512Shape<SR, T>{}, static_cast<UkrFn<T>>(&ukr_avx512<SR, T>));
      return;
    case Level::Avx2:
      f(Avx2Shape<SR, T>{}, static_cast<UkrFn<T>>(&ukr_avx2<SR, T>));
      return;
    case Level::Scalar:
      break;
  }
#endif
  f(Avx2Shape<SR, T>{}, &ukr_scalar<SR, T>);
}

}  // namespace gep::simd
