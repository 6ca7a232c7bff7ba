#include "apps/apps.hpp"

#include <stdexcept>

#include "apps/engine_dispatch.hpp"
#include "blas/blas.hpp"
#include "gep/functors.hpp"

namespace gep::apps {

std::string engine_name(Engine e) {
  switch (e) {
    case Engine::Iterative: return "GEP(iterative)";
    case Engine::IGep: return "I-GEP";
    case Engine::IGepZ: return "I-GEP(z-layout)";
    case Engine::CGep: return "C-GEP(4n^2)";
    case Engine::CGepCompact: return "C-GEP(compact)";
    case Engine::Blocked: return "blocked(cache-aware)";
  }
  return "?";
}

namespace {

// The paper's GEP baseline: the Fig. 1 triple loop, written well
// (hoisted c[i,k], unit-stride inner loop) but with no blocking.
void fw_iterative(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double* ck = c + k * n;
    for (index_t i = 0; i < n; ++i) {
      const double cik = c[i * n + k];
      double* ci = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        ci[j] = std::min(ci[j], cik + ck[j]);
      }
    }
  }
}

}  // namespace

void floyd_warshall(Matrix<double>& d, Engine engine, RunOptions opts) {
  if (d.rows() != d.cols()) throw std::invalid_argument("fw: square only");
  switch (engine) {
    case Engine::Iterative:
      fw_iterative(d.data(), d.rows());
      return;
    case Engine::Blocked:
      blas::fw_tiled(d.rows(), d.data(), d.cols(), opts.base_size);
      return;
    default:
      detail::run_gep<FloydWarshallSet>(
          "fw", engine, opts, d, MinPlusF{},
          [](auto&&... x) { igep_floyd_warshall(x...); });
  }
}

}  // namespace gep::apps
