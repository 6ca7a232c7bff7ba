// Figure 9 reproduction: in-core I-GEP vs C-GEP (both space variants)
// for Floyd-Warshall.
//
// Paper result: both C-GEP variants run slower than I-GEP and incur more
// L2 misses (they perform extra writes into the snapshot matrices); the
// overhead ratio shrinks as n grows; the 4n²-space variant slightly
// outperforms the (n²+n)-space variant because the reduced variant pays
// extra (re)initializations. We report wall time ratios and simulated
// L2 misses on the paper's Opteron geometry.
#include "bench_common.hpp"

#include "cachesim/set_assoc_cache.hpp"
#include "gep/cgep.hpp"
#include "gep/igep.hpp"

namespace {

using namespace gep;

double time_igep(const Matrix<double>& init, index_t base) {
  Matrix<double> c = init;
  WallTimer t;
  run_igep(c, MinPlusF{}, FullSet{c.rows()}, {base});
  return t.seconds();
}

double time_cgep(const Matrix<double>& init, index_t base, bool compact) {
  Matrix<double> c = init;
  WallTimer t;
  if (compact) {
    run_cgep_compact(c, MinPlusF{}, FullSet{c.rows()}, {base});
  } else {
    run_cgep(c, MinPlusF{}, FullSet{c.rows()}, {base});
  }
  return t.seconds();
}

template <class Run>
std::uint64_t l2_misses(const Matrix<double>& init, Run&& run) {
  Matrix<double> c = init;
  CacheHierarchy h(opteron_l1(), opteron_l2());
  TracedAccess<double, CacheHierarchy> acc(c.data(), c.rows(), &h, 0);
  run(acc);
  return h.l2_stats().misses;
}

}  // namespace

int main() {
  bench::print_host_banner("Figure 9: I-GEP vs C-GEP (4n^2) vs C-GEP (reduced)");
  const bool small = bench::small_run();
  const index_t base = 32;

  // (a) wall-clock comparison.
  std::vector<index_t> sizes = small ? std::vector<index_t>{128, 256}
                                     : std::vector<index_t>{128, 256, 512, 1024};
  Table times({"n", "I-GEP (s)", "C-GEP 4n^2 (s)", "C-GEP compact (s)",
               "4n^2 / I-GEP", "compact / I-GEP"});
  for (index_t n : sizes) {
    Matrix<double> init = bench::random_dist_matrix(n, 7);
    double ti = time_igep(init, base);
    double t4 = time_cgep(init, base, false);
    double tc = time_cgep(init, base, true);
    times.add_row({Table::integer(n), Table::num(ti, 3), Table::num(t4, 3),
                   Table::num(tc, 3), Table::num(t4 / ti, 2),
                   Table::num(tc / ti, 2)});
  }
  times.print(std::cout);
  times.write_csv("fig9_cgep_times.csv");

  // (b) simulated L2 misses, Opteron 250 geometry (1MB 8-way 64B).
  std::vector<index_t> sim_sizes = small ? std::vector<index_t>{64, 128}
                                         : std::vector<index_t>{64, 128, 256};
  Table misses({"n", "I-GEP L2 miss", "C-GEP 4n^2 L2 miss",
                "C-GEP compact L2 miss", "4n^2 / I-GEP", "compact / I-GEP"});
  for (index_t n : sim_sizes) {
    Matrix<double> init = bench::random_dist_matrix(n, 8);
    auto mi = l2_misses(init, [&](auto& acc) {
      run_igep(acc, MinPlusF{}, FullSet{n}, {base});
    });
    // C-GEP: aux matrices are also traced (their writes are the overhead
    // the figure attributes to C-GEP).
    Matrix<double> c4 = init;
    CacheHierarchy h4(opteron_l1(), opteron_l2());
    {
      Matrix<double> u0(c4), u1(c4), v0(c4), v1(c4);
      TracedAccess<double, CacheHierarchy> ca(c4.data(), n, &h4, 0),
          a0(u0.data(), n, &h4, 1), a1(u1.data(), n, &h4, 2),
          b0(v0.data(), n, &h4, 3), b1(v1.data(), n, &h4, 4);
      run_cgep_with_aux(ca, a0, a1, b0, b1, MinPlusF{}, FullSet{n}, {base});
    }
    Matrix<double> cc = init;
    CacheHierarchy hc(opteron_l1(), opteron_l2());
    {
      const index_t half = n / 2;
      Matrix<double> u0(n, half), u1(n, half), v0(half, n), v1(half, n);
      // Slice stores: rectangular, each with its own row stride.
      TracedAccess<double, CacheHierarchy> ca(cc.data(), n, &hc, 0),
          a0(u0.data(), half, &hc, 1), a1(u1.data(), half, &hc, 2),
          b0(v0.data(), n, &hc, 3), b1(v1.data(), n, &hc, 4);
      run_cgep_compact_with_aux(ca, a0, a1, b0, b1, MinPlusF{}, FullSet{n},
                                {base});
    }
    auto m4 = h4.l2_stats().misses;
    auto mc = hc.l2_stats().misses;
    misses.add_row({Table::integer(n), Table::integer(static_cast<long long>(mi)),
                    Table::integer(static_cast<long long>(m4)),
                    Table::integer(static_cast<long long>(mc)),
                    Table::num(static_cast<double>(m4) / static_cast<double>(mi), 2),
                    Table::num(static_cast<double>(mc) / static_cast<double>(mi), 2)});
  }
  misses.print(std::cout);
  misses.write_csv("fig9_cgep_misses.csv");
  std::printf(
      "\npaper: C-GEP slower + more L2 misses than I-GEP; overhead\n"
      "diminishes as n grows; 4n^2 variant beats the reduced variant.\n");
  return 0;
}
