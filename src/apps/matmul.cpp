#include "apps/apps.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "apps/engine_dispatch.hpp"
#include "blas/blas.hpp"
#include "gep/numeric_guard.hpp"
#include "util/prng.hpp"

namespace gep::apps {
namespace {

// The GEP-style iterative baseline: k-outer triple loop with hoisting.
void mm_iterative(double* c, const double* a, const double* b, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double* bk = b + k * n;
    for (index_t i = 0; i < n; ++i) {
      const double aik = a[i * n + k];
      double* ci = c + i * n;
      for (index_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

}  // namespace

void multiply_add(Matrix<double>& c, const Matrix<double>& a,
                  const Matrix<double>& b, Engine engine, RunOptions opts) {
  const index_t n = c.rows();
  if (a.rows() != n || a.cols() != n || b.rows() != n || b.cols() != n ||
      c.cols() != n) {
    throw std::invalid_argument("multiply_add: all matrices must be n x n");
  }
  switch (engine) {
    case Engine::Iterative:
      mm_iterative(c.data(), a.data(), b.data(), n);
      return;
    case Engine::Blocked:
      blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
      return;
    case Engine::IGep:
    case Engine::IGepZ:
      detail::run_typed(engine, opts,
                        [](auto&&... x) { igep_matmul(x...); }, c, a, b);
      return;
    case Engine::CGep:
    case Engine::CGepCompact:
      throw std::invalid_argument(
          "multiply_add: C-GEP applies to the in-place GEP form; use IGep");
  }
  throw std::invalid_argument("multiply_add: unknown engine");
}

namespace {

// Core of both freivalds_check forms: verifies (c_after - c_before) r ==
// a (b r) for random +-1 probes r. c_before == nullptr means zero.
bool freivalds_impl(const Matrix<double>& c_after,
                    const Matrix<double>* c_before, const Matrix<double>& a,
                    const Matrix<double>& b, int iters, std::uint64_t seed) {
  const index_t n = a.rows();
  if (a.cols() != n || b.rows() != n || b.cols() != n ||
      c_after.rows() != n || c_after.cols() != n ||
      (c_before != nullptr &&
       (c_before->rows() != n || c_before->cols() != n))) {
    throw std::invalid_argument("freivalds_check: all matrices must be n x n");
  }
  detail_guard::numeric_obs().residual_checks.inc();
  if (n == 0) return true;
  // Rounding tolerance: each entry of a(b r) accumulates ~n^2 products,
  // so the legitimate error scale is n^2 * eps * |a|_max * |b|_max plus
  // the c terms' own magnitude. A genuinely wrong product differs by
  // O(element magnitude), orders above this.
  const double eps = std::numeric_limits<double>::epsilon();
  const double scale = guard_max_abs(a) * guard_max_abs(b) +
                       guard_max_abs(c_after) +
                       (c_before != nullptr ? guard_max_abs(*c_before) : 0.0);
  const double tol = 64.0 * static_cast<double>(n) * static_cast<double>(n) *
                     eps * (scale > 1.0 ? scale : 1.0);
  SplitMix64 rng(seed);
  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> br(static_cast<std::size_t>(n));
  for (int it = 0; it < iters; ++it) {
    for (double& x : r) x = rng.chance(0.5) ? 1.0 : -1.0;
    for (index_t i = 0; i < n; ++i) {
      double acc = 0;
      for (index_t j = 0; j < n; ++j) {
        acc += b(i, j) * r[static_cast<std::size_t>(j)];
      }
      br[static_cast<std::size_t>(i)] = acc;
    }
    for (index_t i = 0; i < n; ++i) {
      double lhs = 0;  // (c_after - c_before) r, row i
      double rhs = 0;  // a (b r), row i
      for (index_t j = 0; j < n; ++j) {
        const double rj = r[static_cast<std::size_t>(j)];
        lhs += c_after(i, j) * rj;
        if (c_before != nullptr) lhs -= (*c_before)(i, j) * rj;
        rhs += a(i, j) * br[static_cast<std::size_t>(j)];
      }
      if (!(std::abs(lhs - rhs) <= tol)) {  // NaN fails the check
        detail_guard::numeric_obs().residual_failures.inc();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool freivalds_check(const Matrix<double>& c, const Matrix<double>& a,
                     const Matrix<double>& b, int iters, std::uint64_t seed) {
  return freivalds_impl(c, nullptr, a, b, iters, seed);
}

bool freivalds_check(const Matrix<double>& c_after,
                     const Matrix<double>& c_before, const Matrix<double>& a,
                     const Matrix<double>& b, int iters, std::uint64_t seed) {
  return freivalds_impl(c_after, &c_before, a, b, iters, seed);
}

}  // namespace gep::apps
