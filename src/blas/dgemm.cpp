#include "blas/blas.hpp"

#include <algorithm>

#include "simd/microkernel.hpp"
#include "util/aligned.hpp"

namespace gep::blas {

// Runs on the shared BLIS-style micro-kernel layer (simd/microkernel.hpp):
// A packed into MR-row column panels, B into NR-column row panels, with
// the register tile and micro-kernel of the active dispatch level
// (simd::with_ukr) selected once per call.
void dgemm_blocked(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b, index_t ldb,
                   double* c, index_t ldc, const GemmBlocking& bl) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  simd::with_ukr<simd::PlusTimes, double>([&](auto tile,
                                                simd::UkrFn<double> ukr) {
    constexpr index_t MR = decltype(tile)::MR;
    constexpr index_t NR = decltype(tile)::NR;
    const index_t mc = bl.mc, kc = bl.kc, nc = bl.nc;
    auto packed_a = make_aligned<double>(
        static_cast<std::size_t>(simd::packed_a_size(MR, mc, kc)));
    auto packed_b = make_aligned<double>(
        static_cast<std::size_t>(simd::packed_b_size(NR, kc, nc)));
    for (index_t jc = 0; jc < n; jc += nc) {
      const index_t ncb = std::min(nc, n - jc);
      for (index_t pc = 0; pc < k; pc += kc) {
        const index_t kcb = std::min(kc, k - pc);
        simd::pack_b<NR>(b + pc * ldb + jc, ldb, kcb, ncb, packed_b.get());
        for (index_t ic = 0; ic < m; ic += mc) {
          const index_t mcb = std::min(mc, m - ic);
          simd::pack_a<MR>(a + ic * lda + pc, lda, mcb, kcb, packed_a.get());
          // Macro kernel over the packed panels.
          for (index_t jr = 0; jr < ncb; jr += NR) {
            const index_t nr = std::min(NR, ncb - jr);
            const double* pb = packed_b.get() + (jr / NR) * kcb * NR;
            for (index_t ir = 0; ir < mcb; ir += MR) {
              ukr(kcb, alpha, packed_a.get() + (ir / MR) * kcb * MR, pb,
                  c + (ic + ir) * ldc + jc + jr, ldc, std::min(MR, mcb - ir),
                  nr);
            }
          }
        }
      }
    }
  });
}

void dgemm(index_t m, index_t n, index_t k, double alpha, const double* a,
           index_t lda, const double* b, index_t ldb, double* c, index_t ldc) {
  dgemm_blocked(m, n, k, alpha, a, lda, b, ldb, c, ldc, GemmBlocking{});
}

}  // namespace gep::blas
