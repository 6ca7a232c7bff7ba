// Problem-level entry points: Floyd-Warshall APSP, Gaussian elimination
// and LU decomposition without pivoting, and matrix multiplication —
// each runnable through every engine the paper compares:
//
//   Iterative   — optimized triple-loop GEP (the paper's GEP baseline)
//   IGep        — typed cache-oblivious I-GEP, iterative base case
//   IGepZ       — I-GEP over the bit-interleaved layout (conversion
//                 included, as the paper includes it in its timings)
//   CGep        — C-GEP, 4n²-space variant (generic engine)
//   CGepCompact — C-GEP, reduced-space variant
//   Blocked     — cache-aware tuned baseline (BLAS stand-in)
//
// Every engine runs any n with no pad: the recursion covers the virtual
// power-of-two grid, prunes the boxes that start at or beyond n and
// clips the edge leaves (gep/typed.hpp, gep/cgep.hpp), with output bit-
// identical to a run on the Σ-neutrally padded matrix. IGep, CGep and
// CGepCompact work in place on the caller's matrix; IGepZ on a Z-Morton
// copy of its n x n part. opts.threads > 1 runs IGep/IGepZ on that many
// workers under opts.runtime (other engines are sequential by
// construction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix.hpp"

namespace gep::simd {
// The frozen benchmark harness (bench/e2e/workloads.cpp,
// LuWorkload::solve_traced) writes
// `simd::ScopedGemmOptions gemm_scope(opts.gemm);` and may change only
// with the benchmark. These empty types keep it compiling; nothing reads
// them. Delete them and RunOptions::gemm with that line.
struct GemmOptions {};
struct ScopedGemmOptions {
  explicit ScopedGemmOptions(const GemmOptions&) {}
};
}  // namespace gep::simd

namespace gep::apps {

enum class Engine { Iterative, IGep, IGepZ, CGep, CGepCompact, Blocked };

std::string engine_name(Engine e);

// Scheduler for the IGep/IGepZ engines (gep::Runtime, matrix.hpp): Dag,
// the default, is the dependency-driven block-task runtime
// (parallel/task_graph.hpp); ForkJoin the strict Fig. 6 recursion.
// Same leaves, bit-identical results. Every IGep/IGepZ app runs under
// either; the other engines ignore the field.
using Runtime = gep::Runtime;

struct RunOptions {
  index_t base_size = 64;
  int threads = 1;
  Runtime runtime = Runtime::Dag;
  simd::GemmOptions gemm{};  // empty; see simd::GemmOptions above
};

// All-pairs shortest paths on a dense distance matrix (INF = +infinity
// semantics via a large sentinel; see kInfDist). In place.
void floyd_warshall(Matrix<double>& d, Engine engine, RunOptions opts = {});

// Gaussian elimination without pivoting: applies every Schur update
// c[i,j] -= c[i,k]*c[k,j]/c[k,k] (k < i, k < j). On return the upper
// triangle (j >= i) holds U; the strict lower triangle holds partially
// eliminated values (NOT multipliers), exactly as the paper's GE kernel
// leaves them. In place.
void gaussian_eliminate(Matrix<double>& a, Engine engine, RunOptions opts = {});

// LU decomposition without pivoting: U on and above the diagonal, unit-
// diagonal L multipliers strictly below. In place.
void lu_decompose(Matrix<double>& a, Engine engine, RunOptions opts = {});

// c += a * b (all square, same n). Engine::CGep* are not meaningful for
// the three-matrix form and fall back to IGep semantics via the GEP
// embedding only in tests; here they are rejected.
void multiply_add(Matrix<double>& c, const Matrix<double>& a,
                  const Matrix<double>& b, Engine engine, RunOptions opts = {});

// All-pairs shortest paths WITH path reconstruction: on return succ(i,j)
// is the next hop after i on a shortest i->j path (-1 when j is
// unreachable or i == j). Engines: Iterative and IGep.
void floyd_warshall_paths(Matrix<double>& d, Matrix<std::int32_t>& succ,
                          Engine engine, RunOptions opts = {});

// Expands a successor matrix into the vertex sequence i -> ... -> j;
// empty when unreachable.
std::vector<index_t> extract_path(const Matrix<std::int32_t>& succ,
                                  index_t from, index_t to);

// Maximum-capacity (bottleneck) paths over the (max, min) semiring:
// cap(i,j) becomes the largest capacity c such that some i->j path uses
// only edges of capacity >= c. 0 = no edge; diagonal is +infinity.
void bottleneck_paths(Matrix<double>& cap, Engine engine,
                      RunOptions opts = {});

// Transitive closure (Warshall): reach(i,j) in {0,1}; in place. The
// boolean or-and semiring instance of GEP — Engine::Blocked is not
// provided (there is no tuned baseline for it); all GEP engines work.
void transitive_closure(Matrix<std::uint8_t>& reach, Engine engine,
                        RunOptions opts = {});

// Freivalds' randomized product check: with `iters` independent +-1
// probe vectors r, verifies c r == a (b r) to within a floating-point
// tolerance. O(n^2) per iteration; a wrong product escapes each probe
// with probability <= 1/2, so `iters` probes bound the false-accept
// rate by 2^-iters. Counts into robust.residual_checks/failures.
bool freivalds_check(const Matrix<double>& c, const Matrix<double>& a,
                     const Matrix<double>& b, int iters = 8,
                     std::uint64_t seed = 1);

// Accumulate form matching multiply_add: verifies
// c_after == c_before + a * b.
bool freivalds_check(const Matrix<double>& c_after,
                     const Matrix<double>& c_before, const Matrix<double>& a,
                     const Matrix<double>& b, int iters = 8,
                     std::uint64_t seed = 1);

// Distance value treated as "no edge" by helpers/benches.
inline constexpr double kInfDist = 1e30;

}  // namespace gep::apps
