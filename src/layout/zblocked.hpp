// Bit-interleaved (Z-Morton) blocked layout — Section 4.2's TLB
// optimization.
//
// The matrix is partitioned into base-size x base-size tiles; tiles are
// stored contiguously, ordered by the Morton interleave of their (tile
// row, tile column) index, with row-major data inside each tile. The
// I-GEP recursion then touches physically contiguous memory at every
// level, reducing TLB misses at large n. Any n works: the tiles cover
// the recursion's virtual power-of-two grid, and only the n x n part is
// converted. Conversion to/from row-major is O(n²) and is included in
// reported timings, as in the paper.
#pragma once

#include <algorithm>
#include <cstdint>

#include "matrix/matrix.hpp"
#include "util/aligned.hpp"

namespace gep {

// Interleaves the low 32 bits of x into even positions.
inline std::uint64_t spread_bits(std::uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

// Morton code: row bits in odd positions, column bits in even positions.
inline std::uint64_t morton2(index_t row, index_t col) {
  return (spread_bits(static_cast<std::uint64_t>(row)) << 1) |
         spread_bits(static_cast<std::uint64_t>(col));
}

// Owning Z-Morton tiled buffer for an n x n matrix with bs x bs tiles
// (bs a power of two). The tiles cover the typed recursion's virtual
// grid (gep/typed.hpp) for any n: ceil(n / bs) tiles a side, the
// buffer sized up to the last tile's Morton slot. load/store copy only
// the n x n part; the rest of an edge tile is never read, because the
// recursion clips its edge leaves to n. When bs divides a power-of-two
// n, that is n² cells and whole-tile copies.
template <class T>
class ZBlocked {
 public:
  ZBlocked(index_t n, index_t bs)
      : n_(n), bs_(bs), tiles_((n + bs - 1) / bs),
        buf_(make_aligned<T>(static_cast<std::size_t>(slots() * bs * bs))) {
    assert(n >= 0 && is_pow2(bs));
  }

  index_t n() const { return n_; }
  index_t block_size() const { return bs_; }

  // Pointer to the contiguous bs x bs tile at tile coordinates (ti, tj).
  T* tile(index_t ti, index_t tj) {
    return buf_.get() + static_cast<index_t>(morton2(ti, tj)) * bs_ * bs_;
  }
  const T* tile(index_t ti, index_t tj) const {
    return buf_.get() + static_cast<index_t>(morton2(ti, tj)) * bs_ * bs_;
  }

  // Element access (slow path — used by tests and conversions only).
  T& at(index_t i, index_t j) {
    return tile(i / bs_, j / bs_)[(i % bs_) * bs_ + (j % bs_)];
  }
  T at(index_t i, index_t j) const {
    return tile(i / bs_, j / bs_)[(i % bs_) * bs_ + (j % bs_)];
  }

  void load(const Matrix<T>& m) {
    assert(m.rows() == n_ && m.cols() == n_);
    for (index_t ti = 0; ti < tiles_; ++ti) {
      const index_t rows = std::min(bs_, n_ - ti * bs_);
      for (index_t tj = 0; tj < tiles_; ++tj) {
        const index_t cols = std::min(bs_, n_ - tj * bs_);
        T* dst = tile(ti, tj);
        const T* src = m.data() + ti * bs_ * n_ + tj * bs_;
        for (index_t r = 0; r < rows; ++r) {
          for (index_t c = 0; c < cols; ++c) dst[r * bs_ + c] = src[r * n_ + c];
        }
      }
    }
  }

  void store(Matrix<T>& m) const {
    assert(m.rows() == n_ && m.cols() == n_);
    for (index_t ti = 0; ti < tiles_; ++ti) {
      const index_t rows = std::min(bs_, n_ - ti * bs_);
      for (index_t tj = 0; tj < tiles_; ++tj) {
        const index_t cols = std::min(bs_, n_ - tj * bs_);
        const T* src = tile(ti, tj);
        T* dst = m.data() + ti * bs_ * n_ + tj * bs_;
        for (index_t r = 0; r < rows; ++r) {
          for (index_t c = 0; c < cols; ++c) dst[r * n_ + c] = src[r * bs_ + c];
        }
      }
    }
  }

 private:
  // Tile slots up to the last tile's: Morton order is monotone in each
  // coordinate, so (tiles-1, tiles-1) has the highest code.
  index_t slots() const {
    if (tiles_ == 0) return 0;
    return static_cast<index_t>(morton2(tiles_ - 1, tiles_ - 1)) + 1;
  }

  index_t n_;
  index_t bs_;
  index_t tiles_;  // tiles a side
  AlignedPtr<T> buf_;
};

// --- Tile stores ----------------------------------------------------------
//
// The optimized typed I-GEP engine (gep/typed.hpp) addresses the matrix
// through a TileStore: tile(ti, tj) -> pointer, with a fixed row stride.
// RowMajorStore views an ordinary matrix; ZStore views a ZBlocked buffer.

template <class T>
struct RowMajorStore {
  T* data;
  index_t n;
  index_t bs;

  T* tile(index_t ti, index_t tj) const { return data + ti * bs * n + tj * bs; }
  index_t tile_stride() const { return n; }
  index_t block_size() const { return bs; }
};

template <class T>
struct ZStore {
  ZBlocked<T>* z;

  T* tile(index_t ti, index_t tj) const { return z->tile(ti, tj); }
  index_t tile_stride() const { return z->block_size(); }
  index_t block_size() const { return z->block_size(); }
};

}  // namespace gep
