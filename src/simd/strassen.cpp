#include "simd/strassen.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/registry.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/microkernel.hpp"
#include "util/aligned.hpp"

namespace gep::simd {
namespace {

long env_long(const char* name, long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return end == s ? fallback : v;
}

int env_strassen_levels() {
  static const int v = static_cast<int>(std::clamp<long>(
      env_long("GEP_STRASSEN_LEVELS", kStrassenLevelsDefault), 0,
      kStrassenMaxLevels));
  return v;
}

index_t env_strassen_min_m() {
  static const index_t v = std::max<long>(
      env_long("GEP_STRASSEN_MIN_M", kStrassenMinMDefault),
      kStrassenMinMFloor);
  return v;
}

// Process-wide overrides installed by set_gemm_options; -1 = inherit.
std::atomic<int> g_levels_override{-1};
std::atomic<index_t> g_min_m_override{-1};

// --- generalized packed GEMM ----------------------------------------------
//
// C_q += alpha * coeff_q * (Σ_s a_s) (Σ_t b_t) over row-major blocks
// sharing lda / ldb / ldc. Macro blocking mirrors blas::GemmBlocking
// (mc x kc A blocks in L2, kc x nc B panels in L3); the packing passes
// form the operand sums, the micro-kernel writeback scatters the
// product — Strassen's 15 additions ride inside passes the classic
// path already makes.

// mc and kc are twice the classic path's 128 x 256: multi-source packs
// and multi-destination writebacks make operand passes the scarce
// resource (a sub-multiply streams up to 4 quadrants per pack and per
// k-chunk), so the Strassen macro loop trades micro-panel L1 residency
// for fewer passes — kc = 512 halves the C writebacks, mc = 256 halves
// the B-panel sweeps, and the packed A block (256 x 512 doubles = 1 MB)
// still fits a 2 MB L2. Values picked by a paired sweep on the dev/CI
// host (see docs/KERNELS.md).
constexpr index_t kStrassenMc = 256;
constexpr index_t kStrassenKc = 512;
constexpr index_t kStrassenNc = 1024;

template <class T>
void gemm_packed_multi(index_t m, index_t n, index_t k, T alpha,
                       const PackSrc<T>* as, int na, index_t lda,
                       const PackSrc<T>* bs, int nb, index_t ldb,
                       const GemmDest<T>* cs, int nd, index_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  with_ukr<PlusTimes, T>([&](auto tile, UkrFn<T> ukr) {
    constexpr index_t MR = decltype(tile)::MR;
    constexpr index_t NR = decltype(tile)::NR;
    const index_t mc = std::min(m, kStrassenMc);
    const index_t kc = std::min(k, kStrassenKc);
    const index_t nc = std::min(n, kStrassenNc);
    T* pa = packing_buffer<T>(
        0, static_cast<std::size_t>(packed_a_size(MR, mc, kc)));
    T* pb = packing_buffer<T>(
        1, static_cast<std::size_t>(packed_b_size(NR, kc, nc)));

    PackSrc<T> ab[kMaxGemmOperands];
    PackSrc<T> bb[kMaxGemmOperands];
    GemmDest<T> db[kMaxGemmOperands];
    for (index_t jc = 0; jc < n; jc += nc) {
      const index_t ncb = std::min(nc, n - jc);
      for (index_t pc = 0; pc < k; pc += kc) {
        const index_t kcb = std::min(kc, k - pc);
        for (int q = 0; q < nb; ++q) {
          bb[q] = {bs[q].p + pc * ldb + jc, bs[q].coeff, nullptr};
        }
        pack_b_multi<NR>(bb, nb, ldb, kcb, ncb, pb);
        for (index_t ic = 0; ic < m; ic += mc) {
          const index_t mcb = std::min(mc, m - ic);
          for (int q = 0; q < na; ++q) {
            ab[q] = {as[q].p + ic * lda + pc, as[q].coeff,
                     as[q].inv == nullptr ? nullptr : as[q].inv + pc};
          }
          pack_a_multi<MR>(ab, na, lda, mcb, kcb, pa);
          for (index_t jr = 0; jr < ncb; jr += NR) {
            const index_t nr = std::min(NR, ncb - jr);
            const T* pbj = pb + (jr / NR) * kcb * NR;
            for (index_t ir = 0; ir < mcb; ir += MR) {
              const index_t coff = (ic + ir) * ldc + jc + jr;
              for (int q = 0; q < nd; ++q) {
                db[q] = {cs[q].c + coff, cs[q].coeff};
              }
              ukr(kcb, alpha, pa + (ir / MR) * kcb * MR, pbj, db, nd, ldc,
                  std::min(MR, mcb - ir), nr);
            }
          }
        }
      }
    }
  });
}

// --- Strassen recursion ----------------------------------------------------
//
// Classic Strassen (not the Winograd variant): its 7-multiply schedule
// is the one whose fused form needs no intermediate at all — every
// multiply reads at most 2 A quadrants and 2 B quadrants and writes at
// most 2 C quadrants, so one packed-GEMM pass per multiply covers the
// whole update. Winograd's fewer additions only pay off when sums are
// materialized; fused, its U/W intermediates would force extra sweeps.
//
//   M1 = (A11+A22)(B11+B22) -> C11+, C22+
//   M2 = (A21+A22) B11      -> C21+, C22-
//   M3 = A11 (B12-B22)      -> C12+, C22+
//   M4 = A22 (B21-B11)      -> C11+, C21+
//   M5 = (A11+A12) B22      -> C11-, C12+
//   M6 = (A21-A11)(B11+B12) -> C22+
//   M7 = (A12-A22)(B21+B22) -> C11+

struct QuadTerm {
  int q;  // quadrant index: (row half) * 2 + (col half)
  int sign;
};

struct Multiply {
  QuadTerm a[2];
  int na;
  QuadTerm b[2];
  int nb;
  QuadTerm c[2];
  int nc;
};

constexpr Multiply kStrassenTable[7] = {
    {{{0, +1}, {3, +1}}, 2, {{0, +1}, {3, +1}}, 2, {{0, +1}, {3, +1}}, 2},
    {{{2, +1}, {3, +1}}, 2, {{0, +1}, {0, 0}}, 1, {{2, +1}, {3, -1}}, 2},
    {{{0, +1}, {0, 0}}, 1, {{1, +1}, {3, -1}}, 2, {{1, +1}, {3, +1}}, 2},
    {{{3, +1}, {0, 0}}, 1, {{2, +1}, {0, -1}}, 2, {{0, +1}, {2, +1}}, 2},
    {{{0, +1}, {1, +1}}, 2, {{3, +1}, {0, 0}}, 1, {{0, -1}, {1, +1}}, 2},
    {{{2, +1}, {0, -1}}, 2, {{0, +1}, {1, +1}}, 2, {{3, +1}, {0, 0}}, 1},
    {{{1, +1}, {3, -1}}, 2, {{2, +1}, {3, +1}}, 2, {{0, +1}, {0, 0}}, 1},
};

template <class T>
void strassen_node(int levels, index_t min_m, index_t m, index_t n,
                   index_t k, T alpha, const PackSrc<T>* as, int na,
                   index_t lda, const PackSrc<T>* bs, int nb, index_t ldb,
                   const GemmDest<T>* cs, int nd, index_t ldc) {
  if (levels <= 0 || std::min({m, n, k}) < min_m ||
      2 * na > kMaxGemmOperands || 2 * nb > kMaxGemmOperands ||
      2 * nd > kMaxGemmOperands) {
    gemm_packed_multi(m, n, k, alpha, as, na, lda, bs, nb, ldb, cs, nd, ldc);
    return;
  }
  const index_t mh = m / 2, nh = n / 2, kh = k / 2;
  const index_t mE = 2 * mh, nE = 2 * nh, kE = 2 * kh;

  for (const Multiply& mul : kStrassenTable) {
    PackSrc<T> a2[kMaxGemmOperands];
    PackSrc<T> b2[kMaxGemmOperands];
    GemmDest<T> c2[kMaxGemmOperands];
    int na2 = 0, nb2 = 0, nd2 = 0;
    for (int t = 0; t < mul.na; ++t) {
      const index_t off =
          (mul.a[t].q >> 1) * mh * lda + (mul.a[t].q & 1) * kh;
      const index_t ioff = (mul.a[t].q & 1) * kh;
      for (int s = 0; s < na; ++s) {
        a2[na2++] = {as[s].p + off,
                     static_cast<T>(mul.a[t].sign) * as[s].coeff,
                     as[s].inv == nullptr ? nullptr : as[s].inv + ioff};
      }
    }
    for (int t = 0; t < mul.nb; ++t) {
      const index_t off =
          (mul.b[t].q >> 1) * kh * ldb + (mul.b[t].q & 1) * nh;
      for (int s = 0; s < nb; ++s) {
        b2[nb2++] = {bs[s].p + off,
                     static_cast<T>(mul.b[t].sign) * bs[s].coeff, nullptr};
      }
    }
    for (int t = 0; t < mul.nc; ++t) {
      const index_t off =
          (mul.c[t].q >> 1) * mh * ldc + (mul.c[t].q & 1) * nh;
      for (int s = 0; s < nd; ++s) {
        c2[nd2++] = {cs[s].c + off,
                     static_cast<T>(mul.c[t].sign) * cs[s].coeff};
      }
    }
    strassen_node(levels - 1, min_m, mh, nh, kh, alpha, a2, na2, lda, b2,
                  nb2, ldb, c2, nd2, ldc);
  }

  // Dynamic peeling for odd extents: the even core above covers
  // C[0:mE, 0:nE] += A[0:mE, 0:kE] B[0:kE, 0:nE]; three thin packed
  // GEMMs on the original operand lists finish the product.
  if (kE < k) {  // last k column/row: rank-1 update of the even core
    PackSrc<T> at[kMaxGemmOperands];
    PackSrc<T> bt[kMaxGemmOperands];
    for (int s = 0; s < na; ++s) {
      at[s] = {as[s].p + kE, as[s].coeff,
               as[s].inv == nullptr ? nullptr : as[s].inv + kE};
    }
    for (int s = 0; s < nb; ++s) {
      bt[s] = {bs[s].p + kE * ldb, bs[s].coeff, nullptr};
    }
    gemm_packed_multi(mE, nE, k - kE, alpha, at, na, lda, bt, nb, ldb, cs,
                      nd, ldc);
  }
  if (nE < n) {  // last column of C, full k
    PackSrc<T> bt[kMaxGemmOperands];
    GemmDest<T> ct[kMaxGemmOperands];
    for (int s = 0; s < nb; ++s) {
      bt[s] = {bs[s].p + nE, bs[s].coeff, nullptr};
    }
    for (int s = 0; s < nd; ++s) ct[s] = {cs[s].c + nE, cs[s].coeff};
    gemm_packed_multi(mE, n - nE, k, alpha, as, na, lda, bt, nb, ldb, ct,
                      nd, ldc);
  }
  if (mE < m) {  // last row of C, full n and k
    PackSrc<T> at[kMaxGemmOperands];
    GemmDest<T> ct[kMaxGemmOperands];
    for (int s = 0; s < na; ++s) {
      at[s] = {as[s].p + mE * lda, as[s].coeff, as[s].inv};
    }
    for (int s = 0; s < nd; ++s) ct[s] = {cs[s].c + mE * ldc, cs[s].coeff};
    gemm_packed_multi(m - mE, n, k, alpha, at, na, lda, bs, nb, ldb, ct, nd,
                      ldc);
  }
}

struct StrassenCounters {
  obs::Counter calls = obs::counter("kernels.strassen.calls");
  obs::Counter levels = obs::counter("kernels.strassen.levels");
  obs::Counter fallbacks = obs::counter("kernels.strassen.fallbacks");
};

StrassenCounters& counters() {
  static StrassenCounters c;
  return c;
}

template <class T>
bool strassen_gemm_impl(index_t m, index_t n, index_t k, T alpha, const T* a,
                        index_t lda, const T* b, index_t ldb, T* c,
                        index_t ldc, const T* inv) {
  const int planned = strassen_planned_levels(m, n, k);
  if (planned == 0) {
    if (strassen_levels() > 0) counters().fallbacks.inc();
    return false;
  }
  counters().calls.inc();
  counters().levels.inc(static_cast<std::uint64_t>(planned));
  const PackSrc<T> as{a, T{1}, inv};
  const PackSrc<T> bs{b, T{1}, nullptr};
  const GemmDest<T> cs{c, T{1}};
  strassen_node(planned, strassen_min_m(), m, n, k, alpha, &as, 1, lda, &bs,
                1, ldb, &cs, 1, ldc);
  return true;
}

// Reciprocal vector for the scaled (GE multiplier fold) path: one
// division per k, identical rounding to pack_a_scaled's hoist.
template <class T>
T* reciprocal_buffer(const T* w, index_t sw, index_t k) {
  thread_local AlignedPtr<T> buf;
  thread_local std::size_t cap = 0;
  const auto count = static_cast<std::size_t>(k);
  if (cap < count) {
    buf = make_aligned<T>(count);
    cap = count;
  }
  for (index_t p = 0; p < k; ++p) buf[p] = T{1} / w[p * sw + p];
  return buf.get();
}

}  // namespace

int strassen_levels() {
  const int o = g_levels_override.load(std::memory_order_relaxed);
  if (o >= 0) return std::min(o, kStrassenMaxLevels);
  return env_strassen_levels();
}

index_t strassen_min_m() {
  const index_t o = g_min_m_override.load(std::memory_order_relaxed);
  if (o >= 0) return std::max(o, kStrassenMinMFloor);
  return env_strassen_min_m();
}

index_t gemm_min_m() {
  static const index_t v =
      std::max<long>(1, env_long("GEP_GEMM_MIN_M", kGemmMinM));
  return v;
}

void set_gemm_options(const GemmOptions& opts) {
  g_levels_override.store(opts.strassen_levels, std::memory_order_relaxed);
  g_min_m_override.store(opts.strassen_min_m, std::memory_order_relaxed);
}

void clear_gemm_options() {
  g_levels_override.store(-1, std::memory_order_relaxed);
  g_min_m_override.store(-1, std::memory_order_relaxed);
}

ScopedGemmOptions::ScopedGemmOptions(const GemmOptions& opts)
    : prev_levels_(g_levels_override.load(std::memory_order_relaxed)),
      prev_min_m_(g_min_m_override.load(std::memory_order_relaxed)) {
  set_gemm_options(opts);
}

ScopedGemmOptions::~ScopedGemmOptions() {
  g_levels_override.store(prev_levels_, std::memory_order_relaxed);
  g_min_m_override.store(prev_min_m_, std::memory_order_relaxed);
}

int strassen_planned_levels(index_t m, index_t n, index_t k) {
  const int levels = strassen_levels();
  const index_t min_m = strassen_min_m();
  int applied = 0;
  index_t edge = std::min({m, n, k});
  while (applied < levels && edge >= min_m) {
    ++applied;
    edge /= 2;
  }
  return applied;
}

bool strassen_gemm(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc) {
  return strassen_gemm_impl<double>(m, n, k, alpha, a, lda, b, ldb, c, ldc,
                                    nullptr);
}
bool strassen_gemm(index_t m, index_t n, index_t k, float alpha,
                   const float* a, index_t lda, const float* b, index_t ldb,
                   float* c, index_t ldc) {
  return strassen_gemm_impl<float>(m, n, k, alpha, a, lda, b, ldb, c, ldc,
                                   nullptr);
}

bool strassen_gemm_scaled(double* x, const double* u, const double* v,
                          const double* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw) {
  if (strassen_planned_levels(m, m, m) == 0) {
    if (strassen_levels() > 0) counters().fallbacks.inc();
    return false;
  }
  const double* inv = reciprocal_buffer(w, sw, m);
  return strassen_gemm_impl<double>(m, m, m, -1.0, u, su, v, sv, x, sx, inv);
}
bool strassen_gemm_scaled(float* x, const float* u, const float* v,
                          const float* w, index_t m, index_t sx, index_t su,
                          index_t sv, index_t sw) {
  if (strassen_planned_levels(m, m, m) == 0) {
    if (strassen_levels() > 0) counters().fallbacks.inc();
    return false;
  }
  const float* inv = reciprocal_buffer(w, sw, m);
  return strassen_gemm_impl<float>(m, m, m, -1.0f, u, su, v, sv, x, sx, inv);
}

}  // namespace gep::simd
