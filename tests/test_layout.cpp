#include <gtest/gtest.h>

#include "layout/zblocked.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

TEST(Morton, SpreadBitsExamples) {
  EXPECT_EQ(spread_bits(0), 0u);
  EXPECT_EQ(spread_bits(1), 1u);
  EXPECT_EQ(spread_bits(0b11), 0b0101u);
  EXPECT_EQ(spread_bits(0b101), 0b010001u);
}

TEST(Morton, Morton2IsZOrder) {
  // (row, col): row bits odd, col bits even.
  EXPECT_EQ(morton2(0, 0), 0u);
  EXPECT_EQ(morton2(0, 1), 1u);
  EXPECT_EQ(morton2(1, 0), 2u);
  EXPECT_EQ(morton2(1, 1), 3u);
  EXPECT_EQ(morton2(2, 0), 8u);
  EXPECT_EQ(morton2(0, 2), 4u);
}

TEST(Morton, BijectiveOnGrid) {
  std::vector<bool> seen(64 * 64, false);
  for (index_t r = 0; r < 64; ++r) {
    for (index_t c = 0; c < 64; ++c) {
      auto z = morton2(r, c);
      ASSERT_LT(z, 64u * 64u);
      EXPECT_FALSE(seen[z]);
      seen[z] = true;
    }
  }
}

TEST(ZBlocked, LoadStoreRoundTrip) {
  // Any n: the edge tiles of a non-multiple n are partly outside it.
  for (index_t n : {1, 5, 8, 16, 63, 64, 65, 100}) {
    for (index_t bs : {2, 4, 8}) {
      SplitMix64 g(static_cast<std::uint64_t>(n * 100 + bs));
      Matrix<double> m(n, n);
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < n; ++j) m(i, j) = g.next_double();
      ZBlocked<double> z(n, bs);
      z.load(m);
      Matrix<double> back(n, n, 0.0);
      z.store(back);
      EXPECT_TRUE(approx_equal(m, back, 0.0)) << "n=" << n << " bs=" << bs;
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < n; ++j) ASSERT_EQ(z.at(i, j), m(i, j));
    }
  }
}

TEST(ZBlocked, ElementAccessMatchesRowMajor) {
  const index_t n = 16, bs = 4;
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = static_cast<double>(i * n + j);
  ZBlocked<double> z(n, bs);
  z.load(m);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) EXPECT_EQ(z.at(i, j), m(i, j));
}

TEST(ZBlocked, TilesAreContiguousRowMajor) {
  const index_t n = 8, bs = 4;
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = static_cast<double>(i * n + j);
  ZBlocked<double> z(n, bs);
  z.load(m);
  const double* t = z.tile(1, 0);  // rows 4..7, cols 0..3
  for (index_t r = 0; r < bs; ++r)
    for (index_t c = 0; c < bs; ++c)
      EXPECT_EQ(t[r * bs + c], m(4 + r, c));
}

TEST(ZBlocked, SiblingTilesAdjacentInMemory) {
  const index_t n = 16, bs = 4;
  ZBlocked<double> z(n, bs);
  // Z-order: (0,0),(0,1),(1,0),(1,1) tiles are consecutive.
  EXPECT_EQ(z.tile(0, 1) - z.tile(0, 0), bs * bs);
  EXPECT_EQ(z.tile(1, 0) - z.tile(0, 1), bs * bs);
  EXPECT_EQ(z.tile(1, 1) - z.tile(1, 0), bs * bs);
}

TEST(Stores, RowMajorStoreTileAddressing) {
  const index_t n = 8, bs = 4;
  Matrix<double> m(n, n, 0.0);
  m(4, 6) = 42;
  RowMajorStore<double> st{m.data(), n, bs};
  EXPECT_EQ(st.tile_stride(), n);
  EXPECT_EQ(st.tile(1, 1)[0 * n + 2], 42);
}

TEST(Stores, ZStoreDelegates) {
  const index_t n = 8, bs = 4;
  Matrix<double> m(n, n, 1.0);
  ZBlocked<double> z(n, bs);
  z.load(m);
  ZStore<double> st{&z};
  EXPECT_EQ(st.tile_stride(), bs);
  EXPECT_EQ(st.tile(1, 1)[0], 1.0);
}

}  // namespace
}  // namespace gep
