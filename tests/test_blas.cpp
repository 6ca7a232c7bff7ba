#include <gtest/gtest.h>

#include "blas/blas.hpp"
#include "gep/iterative.hpp"
#include "gep/functors.hpp"
#include "simd/dispatch.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

Matrix<double> random_matrix(index_t r, index_t c, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(r, c);
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j < c; ++j) m(i, j) = g.uniform(-1.0, 1.0);
  return m;
}

void naive_gemm(index_t m, index_t n, index_t k, double alpha,
                const Matrix<double>& a, const Matrix<double>& b,
                Matrix<double>& c) {
  for (index_t i = 0; i < m; ++i)
    for (index_t p = 0; p < k; ++p) {
      const double aip = alpha * a(i, p);
      for (index_t j = 0; j < n; ++j) c(i, j) += aip * b(p, j);
    }
}

struct GemmShape {
  index_t m, n, k;
};

class DgemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(DgemmShapes, MatchesNaive) {
  auto [m, n, k] = GetParam();
  Matrix<double> a = random_matrix(m, k, 1);
  Matrix<double> b = random_matrix(k, n, 2);
  Matrix<double> c = random_matrix(m, n, 3);
  Matrix<double> ref = c;
  naive_gemm(m, n, k, 1.0, a, b, ref);
  blas::dgemm(m, n, k, 1.0, a.data(), k, b.data(), n, c.data(), n);
  EXPECT_LT(max_abs_diff(ref, c), 1e-11)
      << "m=" << m << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DgemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{4, 8, 4},
                      GemmShape{5, 7, 3}, GemmShape{13, 9, 21},
                      GemmShape{64, 64, 64}, GemmShape{65, 33, 17},
                      GemmShape{128, 64, 256}, GemmShape{100, 100, 100},
                      GemmShape{256, 256, 256}));

// The AVX-512 8 x 16 register tile against the AVX2 6 x 8 one on odd
// shapes, where each leaves a different row and column fringe.
TEST(Dgemm, Avx512TileMatchesAvx2OnOddShapes) {
  if (!simd::avx512_available() || simd::forced_scalar_env()) {
    GTEST_SKIP() << "AVX-512F not dispatchable here";
  }
  for (const GemmShape& s : {GemmShape{5, 7, 3}, GemmShape{13, 9, 21},
                             GemmShape{65, 33, 17}, GemmShape{101, 37, 129},
                             GemmShape{257, 131, 67}}) {
    Matrix<double> a = random_matrix(s.m, s.k, 11);
    Matrix<double> b = random_matrix(s.k, s.n, 12);
    Matrix<double> c2 = random_matrix(s.m, s.n, 13);
    Matrix<double> c512 = c2;
    for (double alpha : {1.0, -0.5}) {
      simd::force_level(simd::Level::Avx2);
      blas::dgemm(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.n,
                  c2.data(), s.n);
      simd::force_level(simd::Level::Avx512);
      blas::dgemm(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.n,
                  c512.data(), s.n);
      EXPECT_LT(max_abs_diff(c2, c512), 1e-11)
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " alpha=" << alpha;
    }
  }
  simd::clear_forced_level();
}

TEST(Dgemm, NegativeAlphaSubtracts) {
  const index_t n = 32;
  Matrix<double> a = random_matrix(n, n, 4);
  Matrix<double> b = random_matrix(n, n, 5);
  Matrix<double> c = random_matrix(n, n, 6);
  Matrix<double> ref = c;
  naive_gemm(n, n, n, -1.0, a, b, ref);
  blas::dgemm(n, n, n, -1.0, a.data(), n, b.data(), n, c.data(), n);
  EXPECT_LT(max_abs_diff(ref, c), 1e-11);
}

TEST(Dgemm, SubmatrixLeadingDimensions) {
  // Operate on the 8x8 top-left corner of 16-wide buffers.
  Matrix<double> a = random_matrix(16, 16, 7);
  Matrix<double> b = random_matrix(16, 16, 8);
  Matrix<double> c(16, 16, 0.0);
  blas::dgemm(8, 8, 8, 1.0, a.data(), 16, b.data(), 16, c.data(), 16);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      double want = 0;
      for (index_t k = 0; k < 8; ++k) want += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), want, 1e-12);
    }
    for (index_t j = 8; j < 16; ++j) EXPECT_EQ(c(i, j), 0.0);  // untouched
  }
}

TEST(Dgemm, CustomBlockingMatches) {
  const index_t n = 96;
  Matrix<double> a = random_matrix(n, n, 9);
  Matrix<double> b = random_matrix(n, n, 10);
  Matrix<double> c1(n, n, 0.0), c2(n, n, 0.0);
  blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c1.data(), n);
  blas::GemmBlocking small{32, 48, 64};
  blas::dgemm_blocked(n, n, n, 1.0, a.data(), n, b.data(), n, c2.data(), n,
                      small);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-12);
}

TEST(BlockedLU, MatchesIterativeGepLU) {
  for (index_t n : {1, 2, 7, 16, 63, 64, 65, 128, 200}) {
    SplitMix64 g(static_cast<std::uint64_t>(n));
    Matrix<double> a(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) a(i, j) = g.uniform(-1.0, 1.0);
      a(i, i) += static_cast<double>(n) + 2.0;
    }
    Matrix<double> ref = a;
    run_gep(ref, LUIndexedF{}, LUSet{n});
    blas::lu_nopivot(n, a.data(), n);
    EXPECT_LT(max_abs_diff(ref, a), 1e-9) << "n=" << n;
  }
}

TEST(BlockedLU, ReconstructsOriginal) {
  const index_t n = 64;
  SplitMix64 g(12);
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = g.uniform(-1.0, 1.0);
    a(i, i) += n + 2.0;
  }
  Matrix<double> lu = a;
  blas::lu_nopivot(n, lu.data(), n);
  // Check A == L*U with unit-diagonal L below and U on/above the diagonal.
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double sum = 0;
      for (index_t k = 0; k <= std::min(i, j); ++k) {
        const double lik = (k == i) ? 1.0 : lu(i, k);
        sum += lik * lu(k, j);
      }
      EXPECT_NEAR(sum, a(i, j), 1e-9) << i << "," << j;
    }
  }
}

TEST(TiledFW, MatchesIterativeGepFW) {
  for (index_t n : {8, 17, 64, 100, 128}) {
    SplitMix64 g(static_cast<std::uint64_t>(n) + 500);
    Matrix<double> d(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) d(i, j) = g.uniform(1.0, 100.0);
      d(i, i) = 0.0;
    }
    Matrix<double> ref = d;
    run_gep(ref, MinPlusF{}, FullSet{n});
    for (index_t tile : {4, 16, 64}) {
      Matrix<double> got = d;
      blas::fw_tiled(n, got.data(), n, tile);
      EXPECT_TRUE(approx_equal(ref, got, 1e-12))
          << "n=" << n << " tile=" << tile;
    }
  }
}

}  // namespace
}  // namespace gep
