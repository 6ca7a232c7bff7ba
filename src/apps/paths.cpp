// Path-producing GEP applications: Floyd-Warshall with successor
// reconstruction and maximum-capacity (bottleneck) paths.
#include "apps/apps.hpp"

#include <limits>
#include <stdexcept>

#include "apps/engine_dispatch.hpp"
#include "gep/functors.hpp"

namespace gep::apps {
namespace {

void fw_paths_iterative(double* d, std::int32_t* s, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double* dk = d + k * n;
    for (index_t i = 0; i < n; ++i) {
      const double dik = d[i * n + k];
      const std::int32_t sik = s[i * n + k];
      double* di = d + i * n;
      std::int32_t* si = s + i * n;
      for (index_t j = 0; j < n; ++j) {
        const double cand = dik + dk[j];
        if (cand < di[j]) {
          di[j] = cand;
          si[j] = sik;
        }
      }
    }
  }
}

void bottleneck_iterative(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double* ck = c + k * n;
    for (index_t i = 0; i < n; ++i) {
      const double cik = c[i * n + k];
      double* ci = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        ci[j] = std::max(ci[j], std::min(cik, ck[j]));
      }
    }
  }
}

}  // namespace

void floyd_warshall_paths(Matrix<double>& d, Matrix<std::int32_t>& succ,
                          Engine engine, RunOptions opts) {
  const index_t n = d.rows();
  if (d.cols() != n) throw std::invalid_argument("fw_paths: square only");
  // Initialize successors from direct edges.
  succ = Matrix<std::int32_t>(n, n, std::int32_t{-1});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i != j && d(i, j) < kInfDist / 2) {
        succ(i, j) = static_cast<std::int32_t>(j);
      }
    }
  }
  switch (engine) {
    case Engine::Iterative:
      fw_paths_iterative(d.data(), succ.data(), n);
      return;
    case Engine::IGep:
      detail::run_typed(engine, opts,
                        [](auto&&... x) { igep_floyd_warshall_paths(x...); },
                        d, succ);
      return;
    default:
      throw std::invalid_argument(
          "fw_paths: supported engines are Iterative and IGep");
  }
}

std::vector<index_t> extract_path(const Matrix<std::int32_t>& succ,
                                  index_t from, index_t to) {
  std::vector<index_t> path;
  if (from == to) return {from};
  if (succ(from, to) < 0) return {};
  index_t at = from;
  path.push_back(at);
  // Bounded walk (paths never exceed n vertices).
  for (index_t steps = 0; steps <= succ.rows(); ++steps) {
    std::int32_t nxt = succ(at, to);
    if (nxt < 0) return {};  // broken chain: treat as unreachable
    at = static_cast<index_t>(nxt);
    path.push_back(at);
    if (at == to) return path;
  }
  return {};  // cycle guard
}

void bottleneck_paths(Matrix<double>& cap, Engine engine, RunOptions opts) {
  const index_t n = cap.rows();
  if (cap.cols() != n) throw std::invalid_argument("bottleneck: square only");
  for (index_t i = 0; i < n; ++i) {
    cap(i, i) = std::numeric_limits<double>::infinity();
  }
  switch (engine) {
    case Engine::Iterative:
      bottleneck_iterative(cap.data(), n);
      return;
    case Engine::Blocked:
      throw std::invalid_argument("bottleneck: no blocked baseline");
    default:
      detail::run_gep<FullSet>("bottleneck", engine, opts, cap, MaxMinF{},
                               [](auto&&... x) { igep_bottleneck(x...); });
  }
}

}  // namespace gep::apps
