// Figure 8 reproduction: in-core Floyd-Warshall APSP, GEP vs I-GEP.
//
// Paper result: on Intel Xeon I-GEP runs ~5x faster than GEP; on AMD
// Opteron ~4x faster, across n. We sweep n, run the optimized iterative
// GEP baseline and typed I-GEP (row-major base blocks and bit-interleaved
// layout, conversion included), and print time and the speedup ratio.
#include "bench_common.hpp"

#include "apps/apps.hpp"

namespace {

using namespace gep;
using apps::Engine;

double time_engine(const Matrix<double>& init, Engine e, index_t base) {
  Matrix<double> d = init;
  WallTimer t;
  apps::floyd_warshall(d, e, {base, 1, apps::Runtime::ForkJoin});
  double dt = t.seconds();
  // Fold a checksum into stderr-free output to defeat dead-code elision.
  volatile double sink = d(0, d.cols() - 1);
  (void)sink;
  return dt;
}

}  // namespace

int main() {
  double peak = bench::print_host_banner(
      "Figure 8: Floyd-Warshall APSP, GEP vs I-GEP (in-core)");
  const bool small = bench::small_run();
  std::vector<index_t> sizes =
      small ? std::vector<index_t>{128, 256, 512}
            : std::vector<index_t>{128, 256, 512, 1024, 2048};
  const index_t base = 64;

  Table table({"n", "GEP (s)", "I-GEP (s)", "I-GEP/Z (s)", "GEP GFLOPS",
               "I-GEP GFLOPS", "speedup I-GEP", "speedup I-GEP/Z"});
  for (index_t n : sizes) {
    Matrix<double> init = bench::random_dist_matrix(n, 42);
    double t_gep = time_engine(init, Engine::Iterative, base);
    double t_igep = time_engine(init, Engine::IGep, base);
    double t_igz = time_engine(init, Engine::IGepZ, base);
    double fl = bench::flops_fw(n);
    table.add_row({Table::integer(n), Table::num(t_gep, 3),
                   Table::num(t_igep, 3), Table::num(t_igz, 3),
                   Table::num(fl / t_gep / 1e9, 2),
                   Table::num(fl / t_igep / 1e9, 2),
                   Table::num(t_gep / t_igep, 2),
                   Table::num(t_gep / t_igz, 2)});
  }
  table.print(std::cout);
  table.write_csv("fig8_apsp.csv");
  std::printf(
      "\npaper: I-GEP ~4-5x faster than GEP (Xeon ~5x, Opteron ~4x).\n"
      "peak reference: %.2f GFLOP/s (min+add counted as 2 flops/update)\n",
      peak);
  return 0;
}
