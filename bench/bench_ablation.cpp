// Ablations of the Section 4.2 optimizations:
//   1. base-size sweep — recursion overhead vs cache footprint tradeoff
//      (paper: best 64x64 on Opteron, 128x128 on Xeon);
//   2. bit-interleaved layout on/off at several n (TLB effect grows
//      with n; conversion cost included);
//   3. division hoisting in the GE kernel on/off;
//   4. BLAS-baseline gemm blocking parameters.
#include "bench_common.hpp"

#include <cmath>

#include "apps/apps.hpp"
#include "apps/gap_alignment.hpp"
#include "apps/simple_dp.hpp"
#include "blas/blas.hpp"
#include "gep/typed.hpp"

namespace {

using namespace gep;
using apps::Engine;

// GE base kernel WITHOUT division hoisting (division in the inner loop,
// as naive GEP code would have it) for ablation 3.
void ge_unhoisted(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = k + 1; i < n; ++i) {
      for (index_t j = k + 1; j < n; ++j) {
        c[i * n + j] -= c[i * n + k] * c[k * n + j] / c[k * n + k];
      }
    }
  }
}

void ge_hoisted(double* c, index_t n) {
  for (index_t k = 0; k < n; ++k) {
    const double wkk = c[k * n + k];
    for (index_t i = k + 1; i < n; ++i) {
      const double t = c[i * n + k] / wkk;
      for (index_t j = k + 1; j < n; ++j) c[i * n + j] -= t * c[k * n + j];
    }
  }
}

}  // namespace

int main() {
  bench::print_host_banner("Ablations: base size, layout, division hoisting, "
                           "gemm blocking");
  const bool small = bench::small_run();

  // 1. base-size sweep for I-GEP Floyd-Warshall.
  {
    const index_t n = small ? 512 : 1024;
    Matrix<double> init = bench::random_dist_matrix(n, 1);
    Table t({"base size", "I-GEP FW (s)", "GFLOPS"});
    for (index_t bs : {8, 16, 32, 64, 128, 256}) {
      Matrix<double> d = init;
      WallTimer w;
      apps::floyd_warshall(d, Engine::IGep, {bs, 1, Runtime::ForkJoin});
      double dt = w.seconds();
      t.add_row({Table::integer(bs), Table::num(dt, 3),
                 Table::num(bench::flops_fw(n) / dt / 1e9, 2)});
    }
    std::printf("1. base-size sweep (n=%lld):\n", static_cast<long long>(n));
    t.print(std::cout);
    t.write_csv("ablation_base_size.csv");
  }

  // 2. layout: row-major blocks vs bit-interleaved (conversion included).
  {
    Table t({"n", "row-major (s)", "z-layout (s)", "z/rm ratio"});
    std::vector<index_t> sizes = small ? std::vector<index_t>{512}
                                       : std::vector<index_t>{512, 1024, 2048};
    for (index_t n : sizes) {
      Matrix<double> init = bench::random_dist_matrix(n, 2);
      Matrix<double> a = init, b = init;
      WallTimer w1;
      apps::floyd_warshall(a, Engine::IGep, {64, 1, Runtime::ForkJoin});
      double t_rm = w1.seconds();
      WallTimer w2;
      apps::floyd_warshall(b, Engine::IGepZ, {64, 1, Runtime::ForkJoin});
      double t_z = w2.seconds();
      t.add_row({Table::integer(n), Table::num(t_rm, 3), Table::num(t_z, 3),
                 Table::num(t_z / t_rm, 2)});
    }
    std::printf("2. layout ablation (FW, base=64):\n");
    t.print(std::cout);
    t.write_csv("ablation_layout.csv");
  }

  // 3. division hoisting in GE.
  {
    const index_t n = small ? 256 : 512;
    Matrix<double> init = bench::random_dd_matrix(n, 3);
    Matrix<double> a = init, b = init;
    WallTimer w1;
    ge_unhoisted(a.data(), n);
    double t_un = w1.seconds();
    WallTimer w2;
    ge_hoisted(b.data(), n);
    double t_h = w2.seconds();
    std::printf("3. GE division hoisting (n=%lld): in-loop %.3fs, hoisted "
                "%.3fs, speedup %.2fx\n\n",
                static_cast<long long>(n), t_un, t_h, t_un / t_h);
  }

  // 4. gemm blocking parameters for the BLAS baseline.
  {
    const index_t n = small ? 512 : 1024;
    Matrix<double> a = bench::random_matrix(n, 4);
    Matrix<double> b = bench::random_matrix(n, 5);
    Table t({"mc", "kc", "nc", "time (s)", "GFLOPS"});
    for (blas::GemmBlocking bl : {blas::GemmBlocking{64, 64, 256},
                                  blas::GemmBlocking{128, 256, 1024},
                                  blas::GemmBlocking{256, 128, 512},
                                  blas::GemmBlocking{32, 512, 2048}}) {
      Matrix<double> c(n, n, 0.0);
      WallTimer w;
      blas::dgemm_blocked(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(),
                          n, bl);
      double dt = w.seconds();
      t.add_row({Table::integer(bl.mc), Table::integer(bl.kc),
                 Table::integer(bl.nc), Table::num(dt, 3),
                 Table::num(bench::flops_mm(n) / dt / 1e9, 2)});
    }
    std::printf("4. gemm blocking sweep (n=%lld):\n",
                static_cast<long long>(n));
    t.print(std::cout);
    t.write_csv("ablation_gemm_blocking.csv");
  }
  // 5. Non-GEP adaptations (paper Section 1 / [6], [5]): cache-oblivious
  // simple-DP (parenthesis problem) and GAP alignment vs their iterative
  // DPs. Same results, fewer cache misses -> faster at larger n.
  {
    Table t({"problem", "n", "iterative (s)", "cache-oblivious (s)",
             "speedup"});
    for (index_t n : {256, 512, small ? 512 : 1024}) {
      SplitMix64 g(6);
      Matrix<double> leaves(n, n, 0.0);
      for (index_t i = 0; i + 1 < n; ++i) leaves(i, i + 1) = g.uniform(0, 9);
      auto w = [](index_t i, index_t j) {
        return 1.0 + 0.001 * static_cast<double>(i + j);
      };
      Matrix<double> a = leaves, b = leaves;
      WallTimer t1;
      apps::simple_dp_iterative(a, w);
      double ti = t1.seconds();
      WallTimer t2;
      apps::simple_dp_recursive(b, w, {64});
      double tr = t2.seconds();
      t.add_row({"simple-DP", Table::integer(n), Table::num(ti, 3),
                 Table::num(tr, 3), Table::num(ti / tr, 2)});
    }
    for (index_t n : {256, 512, small ? 512 : 1024}) {
      auto s_fn = [](index_t i, index_t j) {
        return (i * 7 + j * 3) % 4 == 0 ? 0.0 : 1.5;
      };
      auto wg = [](index_t q, index_t j) {
        return 2.0 + std::sqrt(static_cast<double>(j - q));
      };
      Matrix<double> a(n, n), b(n, n);
      WallTimer t1;
      apps::gap_alignment_iterative(a, s_fn, wg);
      double ti = t1.seconds();
      WallTimer t2;
      apps::gap_alignment_recursive(b, s_fn, wg, {64});
      double tr = t2.seconds();
      t.add_row({"GAP alignment", Table::integer(n), Table::num(ti, 3),
                 Table::num(tr, 3), Table::num(ti / tr, 2)});
    }
    std::printf("5. non-GEP adaptations (cache-oblivious vs iterative DP):\n");
    t.print(std::cout);
    t.write_csv("ablation_adaptations.csv");
  }
  return 0;
}
