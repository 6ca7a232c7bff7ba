// Dense matrix storage and views.
//
// Matrix<T> owns an aligned row-major buffer; MatrixView<T> is a
// non-owning strided window used by the recursive GEP engines for
// quadrant decomposition (no copies, just pointer arithmetic).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/aligned.hpp"

namespace gep {

using index_t = std::int64_t;

template <class T>
class MatrixView;

template <class T>
class Matrix {
 public:
  Matrix() = default;

  // Uninitialized rows x cols matrix.
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols),
        data_(make_aligned<T>(static_cast<std::size_t>(rows * cols))) {}

  Matrix(index_t rows, index_t cols, T fill) : Matrix(rows, cols) {
    for (index_t i = 0; i < rows * cols; ++i) data_[i] = fill;
  }

  Matrix(const Matrix& other) : Matrix(other.rows_, other.cols_) {
    for (index_t i = 0; i < rows_ * cols_; ++i) data_[i] = other.data_[i];
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      Matrix tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }

  T& operator()(index_t i, index_t j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i * cols_ + j];
  }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  void fill(T v) {
    for (index_t i = 0; i < rows_ * cols_; ++i) data_[i] = v;
  }

  MatrixView<T> view();
  MatrixView<const T> view() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedPtr<T> data_;
};

// Non-owning strided window into a row-major buffer.
template <class T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {}

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t stride() const { return stride_; }
  T* data() const { return data_; }

  T& operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i * stride_ + j];
  }

  // Sub-window starting at (r0, c0) with the given extent.
  MatrixView block(index_t r0, index_t c0, index_t nr, index_t nc) const {
    assert(r0 >= 0 && c0 >= 0 && r0 + nr <= rows_ && c0 + nc <= cols_);
    return MatrixView(data_ + r0 * stride_ + c0, nr, nc, stride_);
  }

  // Quadrants of a square even-sized view (the I-GEP decomposition).
  MatrixView q11() const { return block(0, 0, rows_ / 2, cols_ / 2); }
  MatrixView q12() const { return block(0, cols_ / 2, rows_ / 2, cols_ / 2); }
  MatrixView q21() const { return block(rows_ / 2, 0, rows_ / 2, cols_ / 2); }
  MatrixView q22() const {
    return block(rows_ / 2, cols_ / 2, rows_ / 2, cols_ / 2);
  }

  operator MatrixView<const T>() const {
    return MatrixView<const T>(data_, rows_, cols_, stride_);
  }

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t stride_ = 0;
};

template <class T>
MatrixView<T> Matrix<T>::view() {
  return MatrixView<T>(data_.get(), rows_, cols_, cols_);
}

template <class T>
MatrixView<const T> Matrix<T>::view() const {
  return MatrixView<const T>(data_.get(), rows_, cols_, cols_);
}

// True when every element differs by at most `tol` (exact for tol = 0).
template <class T>
bool approx_equal(const Matrix<T>& a, const Matrix<T>& b, T tol = T{}) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      T d = a(i, j) - b(i, j);
      if (d < T{}) d = -d;
      if (d > tol) return false;
    }
  }
  return true;
}

// Largest absolute element-wise difference.
template <class T>
T max_abs_diff(const Matrix<T>& a, const Matrix<T>& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  T worst{};
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      T d = a(i, j) - b(i, j);
      if (d < T{}) d = -d;
      if (d > worst) worst = d;
    }
  }
  return worst;
}

inline index_t next_pow2(index_t n) {
  index_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

inline bool is_pow2(index_t n) { return n > 0 && (n & (n - 1)) == 0; }

// --- the virtual power-of-two grid of the I-GEP recursion -----------------
//
// The recursion halves boxes of side grid_side(n, bs) = bs * 2^q >= n
// down to leaves of side bs = leaf_side(base, n), both exactly the
// sides a run on the matrix padded to next_pow2(n) would use. A box
// whose i-, j- or k-range starts at or beyond n is pruned; a surviving
// leaf is clipped to the n x n matrix.

// The two schedules of a typed I-GEP solve (parallel/task_graph.hpp):
// ForkJoin runs the recursion with Fig. 6's fork-join stages, Dag runs
// its leaves as a dependency-driven task graph. Same leaves, same
// per-block update order, so the same output bit for bit.
enum class Runtime { ForkJoin, Dag };

inline index_t leaf_side(index_t base, index_t n) {
  return std::min(base, next_pow2(n));
}

inline index_t grid_side(index_t n, index_t bs) {
  index_t s = bs;
  while (s < n) s *= 2;
  return s;
}

// One leaf box: its nominal side m, on which kernels decide their
// routing, and its extents mi x mj (the updated tile) by mk (the
// k-range), clipped to the matrix. The one-argument form is the square
// box m x m x m, so a kernel called with a plain side runs unclipped.
struct LeafDims {
  index_t m, mi, mj, mk;
  LeafDims(index_t side) : m(side), mi(side), mj(side), mk(side) {}
  LeafDims(index_t side, index_t ei, index_t ej, index_t ek)
      : m(side), mi(ei), mj(ej), mk(ek) {}
  static LeafDims clipped(index_t n, index_t i0, index_t j0, index_t k0,
                          index_t m) {
    return {m, std::min(m, n - i0), std::min(m, n - j0), std::min(m, n - k0)};
  }
};

// Embeds `m` into a pow2-sized matrix filled with `fill` outside.
template <class T>
Matrix<T> pad_to_pow2(const Matrix<T>& m, T fill) {
  index_t n = next_pow2(std::max(m.rows(), m.cols()));
  Matrix<T> out(n, n, fill);
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j);
  return out;
}

// Extracts the top-left rows x cols corner (inverse of pad_to_pow2).
template <class T>
Matrix<T> unpad(const Matrix<T>& m, index_t rows, index_t cols) {
  Matrix<T> out(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) out(i, j) = m(i, j);
  return out;
}

}  // namespace gep
