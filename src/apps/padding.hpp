// Internal: the power-of-two padding of the engines that still need it.
// Not installed API.
//
// IGep runs any n in place (gep/typed.hpp). IGepZ (the Z-Morton layout
// is pow2 by construction), CGep and CGepCompact still run on a copy
// padded to the next power of two with Σ-neutral values, which make
// every padded update a no-op on the original entries.
#pragma once

#include "matrix/matrix.hpp"

namespace gep::apps::detail {

// Runs fn on `a` embedded in the next power of two, `fill` off the
// diagonal and `diag` on the padded diagonal, and copies the n x n
// corner back; runs fn(a) itself when n is already a power of two.
template <class T, class Fn>
void with_pow2_padding(Matrix<T>& a, T fill, T diag, Fn&& fn) {
  const index_t n = a.rows();
  if (is_pow2(n)) {
    fn(a);
    return;
  }
  Matrix<T> p = pad_to_pow2(a, fill);
  for (index_t i = n; i < p.rows(); ++i) p(i, i) = diag;
  fn(p);
  a = unpad(p, n, n);
}

}  // namespace gep::apps::detail
