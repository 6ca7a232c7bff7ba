// Instrumentation for the structural theorems of Section 2.
//
// π and δ (Definition 2.2, 0-based):
//   * an aligned subinterval for n = 2^q is [a, b] with b-a+1 = 2^r and
//     a a multiple of 2^r;
//   * π(x, z) = right endpoint of the largest aligned subinterval
//     containing z but not x (z-1 when x == z);
//   * δ(x, y, z) = right endpoint b of the largest aligned subsquare
//     [a,b] x [a,b] containing (z,z) but not (x,y) (z-1 when x == y == z).
//
// Theorem 2.2 states that immediately before I-GEP applies <i,j,k>:
//   c[i,j] = c_{k-1}(i,j),      c[i,k] = c_{π(j,k)}(i,k),
//   c[k,j] = c_{π(i,k)}(k,j),   c[k,k] = c_{δ(i,j,k)}(k,k).
// The hooks below record enough of an execution to verify this and
// Theorem 2.1 programmatically.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "gep/access.hpp"
#include "matrix/matrix.hpp"

namespace gep {

// Largest r such that the aligned 2^r-interval around z excludes x is
// bit_width(x ^ z) - 1; the interval is z with the low r bits saturated.
inline index_t pi_func(index_t x, index_t z) {
  if (x == z) return z - 1;
  auto diff = static_cast<std::uint64_t>(x ^ z);
  const int r = std::bit_width(diff) - 1;  // highest differing bit
  const index_t mask = (index_t{1} << r) - 1;
  return z | mask;
}

inline index_t delta_func(index_t x, index_t y, index_t z) {
  if (x == z && y == z) return z - 1;
  // Smallest aligned square around (z,z) that contains x on the row axis
  // has side 2^bit_width(x^z); the largest square EXCLUDING (x,y) is one
  // level below the smallest containing both coordinates.
  const int rx = (x == z) ? 0 : std::bit_width(static_cast<std::uint64_t>(x ^ z));
  const int ry = (y == z) ? 0 : std::bit_width(static_cast<std::uint64_t>(y ^ z));
  const int r = std::max(rx, ry) - 1;
  const index_t mask = (index_t{1} << r) - 1;
  return z | mask;
}

struct UpdateRecord {
  index_t i, j, k;
};

// Records every update an engine applies, in order. Π_F of Theorem 2.1.
struct UpdateLogHook {
  std::vector<UpdateRecord> log;
  void on_update(index_t i, index_t j, index_t k) { log.push_back({i, j, k}); }
};

// Tracks, per cell, the largest k whose update has been applied (-1 when
// untouched). Because Theorem 2.1(c) guarantees per-cell updates arrive
// in increasing k, `last_k` fully identifies the state c_l(i,j) a cell
// is in. The verify callback runs BEFORE the state table is bumped,
// i.e. it sees the pre-update states.
template <class Verify>
struct StateTrackHook {
  index_t n;
  std::vector<index_t> last_k;  // n*n, init -1
  Verify verify;                // void(i, j, k, const StateTrackHook&)

  StateTrackHook(index_t n_, Verify v)
      : n(n_), last_k(static_cast<std::size_t>(n_ * n_), -1),
        verify(std::move(v)) {}

  index_t state_of(index_t i, index_t j) const {
    return last_k[static_cast<std::size_t>(i * n + j)];
  }

  void on_update(index_t i, index_t j, index_t k) {
    verify(i, j, k, *this);
    last_k[static_cast<std::size_t>(i * n + j)] = k;
  }
};

}  // namespace gep
