#include "apps/apps.hpp"

#include <stdexcept>

#include "apps/padding.hpp"
#include "apps/runtime_select.hpp"
#include "gep/cgep.hpp"
#include "gep/functors.hpp"
#include "gep/typed.hpp"

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
    case Engine::IGep: {
      const index_t n = reach.rows();
      RowMajorStore<std::uint8_t> st{reach.data(), n,
                                     leaf_side(opts.base_size, n)};
      detail::run_igep(opts, [&](WorkStealingPool* pool, TypedOptions t) {
        igep_transitive_closure(pool, st, n, t);
      });
      return;
    }
    case Engine::IGepZ:
      // Zero padding is neutral: padded vertices have no edges.
      detail::with_pow2_padding(
          reach, std::uint8_t{0}, std::uint8_t{0},
          [&](Matrix<std::uint8_t>& m) {
            const index_t bs = std::min(opts.base_size, m.rows());
            ZBlocked<std::uint8_t> z(m.rows(), bs);
            z.load(m);
            ZStore<std::uint8_t> st{&z};
            detail::run_igep(
                opts, [&](WorkStealingPool* pool, TypedOptions t) {
                  igep_transitive_closure(pool, st, m.rows(), t);
                });
            z.store(m);
          });
      return;
    case Engine::CGep:
      detail::with_pow2_padding(
          reach, std::uint8_t{0}, std::uint8_t{0},
          [&](Matrix<std::uint8_t>& m) {
            run_cgep(m, OrAndF{}, FullSet{m.rows()}, {opts.base_size});
          });
      return;
    case Engine::CGepCompact:
      detail::with_pow2_padding(
          reach, std::uint8_t{0}, std::uint8_t{0},
          [&](Matrix<std::uint8_t>& m) {
            run_cgep_compact(m, OrAndF{}, FullSet{m.rows()},
                             {opts.base_size});
          });
      return;
    case Engine::Blocked:
      throw std::invalid_argument("tc: no blocked baseline; use IGep");
  }
  throw std::invalid_argument("tc: unknown engine");
}

}  // namespace gep::apps
