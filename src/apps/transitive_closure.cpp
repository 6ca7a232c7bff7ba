#include "apps/apps.hpp"

#include <stdexcept>

#include "apps/engine_dispatch.hpp"
#include "gep/functors.hpp"

namespace gep::apps {
namespace {

// Iterative Warshall with the row-skip hoist (u[i][k] == 0 rows are
// untouched by iteration k).
void tc_iterative(std::uint8_t* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const std::uint8_t* ck = c + k * n;
    for (index_t i = 0; i < n; ++i) {
      if (!c[i * n + k]) continue;
      std::uint8_t* ci = c + i * n;
      for (index_t j = 0; j < n; ++j) {
        ci[j] = static_cast<std::uint8_t>(ci[j] | ck[j]);
      }
    }
  }
}

}  // namespace

void transitive_closure(Matrix<std::uint8_t>& reach, Engine engine,
                        RunOptions opts) {
  if (reach.rows() != reach.cols()) {
    throw std::invalid_argument("tc: square only");
  }
  switch (engine) {
    case Engine::Iterative:
      tc_iterative(reach.data(), reach.rows());
      return;
    case Engine::Blocked:
      throw std::invalid_argument("tc: no blocked baseline; use IGep");
    default:
      detail::run_gep<FullSet>(
          "tc", engine, opts, reach, OrAndF{},
          [](auto&&... x) { igep_transitive_closure(x...); });
  }
}

}  // namespace gep::apps
