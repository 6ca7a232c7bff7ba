// Figure 10 reproduction: Gaussian elimination without pivoting —
// GEP vs I-GEP vs the cache-aware blocked baseline (GotoBLAS stand-in),
// reported as % of the measured machine peak.
//
// Paper result: GotoBLAS+FLAME ~75-83% of peak, I-GEP ~45-55%, GEP only
// ~7-9%. Our baseline is portable C++ rather than hand-written assembly,
// so its absolute % of peak is lower, but the ordering
// blocked > I-GEP > GEP and the (blocked/I-GEP) ~ 1.5x gap is the claim
// under reproduction. The computation (and flop count) is the LU-style
// elimination the paper benches via FLAME's LU without pivoting.
//
// Instrumented extras (BENCH_fig10_ge.json + the tables below):
//   * hardware cycles / instructions / L1d / LLC misses per engine run
//     (perf_event_open; rows say "n/a" where the kernel denies it),
//   * SIMULATED LLC misses of the same I-GEP elimination replayed
//     through the ideal-cache model at this host's LLC geometry, printed
//     side by side with the measured hardware counts,
//   * a multithreaded I-GEP run on the work-stealing pool (steal counts
//     land in the registry snapshot),
//   * a small out-of-core LU through the page cache (hit/miss/writeback
//     counters land in the registry snapshot).
#include "bench_common.hpp"

#include <thread>

#include "apps/apps.hpp"
#include "cachesim/ideal_cache.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "gep/functors.hpp"
#include "gep/igep.hpp"
#include "parallel/task_graph.hpp"

namespace {

using namespace gep;
using apps::Engine;

double time_engine(const Matrix<double>& init, Engine e, index_t base) {
  Matrix<double> a = init;
  WallTimer t;
  apps::lu_decompose(a, e, {base, 1, apps::Runtime::ForkJoin});
  double dt = t.seconds();
  volatile double sink = a(a.rows() - 1, a.cols() - 1);
  (void)sink;
  return dt;
}

// Typed I-GEP LU, Fig. 6's fork-join schedule on the Cilk-style work-
// stealing pool: the parallel leg of the figure, and the producer of the
// "parallel.ws.*" metrics.
double time_parallel(const Matrix<double>& init, index_t base, int threads,
                     long* steals_out) {
  Matrix<double> a = init;
  const index_t n = a.rows();
  WorkStealingPool pool(threads);
  RowMajorStore<double> st{a.data(), n, base};
  WallTimer t;
  igep_lu(&pool, st, n, {base, Runtime::ForkJoin});
  double dt = t.seconds();
  *steals_out = pool.steal_count();
  volatile double sink = a(n - 1, n - 1);
  (void)sink;
  return dt;
}

// Out-of-core LU at block granularity through the shared page cache
// (producer of the "extmem.page_cache.*" metrics). The cache is starved
// to 16 tile frames so real eviction traffic happens at every size.
double time_ooc(const Matrix<double>& init, index_t base,
                PageCacheStats* stats_out) {
  const index_t n = init.rows();
  const std::uint64_t page = static_cast<std::uint64_t>(base) * base * 8;
  PageCache cache(16 * page, page);
  OocTiledMatrix<double> m(cache, n, n, base);
  m.load(init);
  cache.reset_stats();
  WallTimer t;
  try {
    ooc_igep_lu_dag(m, nullptr, {.prefetch = false});
  } catch (const obs::JobCancelled&) {
    // SIGINT/SIGTERM mid-leg: flush write-behind so the backing file is
    // consistent, leave a flight dump, and exit with the SIGINT code.
    std::fprintf(stderr, "\n[fig10] cancelled by signal; flushing\n");
    cache.flush();
    obs::flight::dump_default();
    std::exit(130);
  }
  double dt = t.seconds();
  *stats_out = cache.stats();
  return dt;
}

// Replays the I-GEP elimination's element accesses through the ideal-
// cache model at this host's LLC geometry — the simulated counterpart of
// the hardware LLC-miss counter.
CacheStats simulate_igep_lu(const Matrix<double>& init, index_t base,
                            std::uint64_t llc_bytes,
                            std::uint64_t line_bytes) {
  Matrix<double> a = init;
  IdealCache sim(llc_bytes, line_bytes);
  TracedAccess<double, IdealCache> acc(a.data(), a.rows(), &sim, 0);
  run_igep(acc, LUIndexedF{}, LUSet{a.rows()}, {base});
  publish_cachesim_gauges("llc.igep_lu", sim.stats());
  return sim.stats();
}

}  // namespace

int main() {
  double peak = bench::print_host_banner(
      "Figure 10: Gaussian elimination w/o pivoting, % of peak");
  obs::flight::install_job_signal_handlers();
  const bool small = bench::small_run();
  std::vector<index_t> sizes =
      small ? std::vector<index_t>{256, 512}
            : std::vector<index_t>{256, 512, 1024, 2048};
  const index_t base = 64;
  bench::BenchReport report("fig10_ge", peak);

  // LLC geometry for the simulated-miss column (largest data/unified
  // cache the host reports; a generic 1 MB / 64 B when unknown).
  CpuInfo info = query_cpu_info();
  CacheLevel llc = info.level(3);
  if (llc.size_bytes == 0) llc = info.level(2);
  std::uint64_t llc_bytes = llc.size_bytes ? llc.size_bytes : (1u << 20);
  std::uint64_t llc_line = llc.line_bytes ? llc.line_bytes : 64;
  // Full element-trace simulation costs ~n³ hash probes; cap it where it
  // stays a few seconds. Larger sizes report hardware counters only.
  const index_t sim_cap = 512;

  // "I-GEP" below is the paper's optimized configuration: typed
  // recursion + iterative base case + bit-interleaved layout (conversion
  // included). The row-major variant is shown for the layout ablation.
  Table table({"n", "GEP (s)", "I-GEP rm (s)", "I-GEP (s)", "blocked (s)",
               "GEP %peak", "I-GEP %peak", "blocked %peak",
               "I-GEP/blocked ratio"});
  Table inst({"n", "par (s)", "p", "steals", "ooc (s)", "pc hits",
              "pc misses", "hw LLC miss", "sim LLC miss"});
  const int par_threads = static_cast<int>(
      std::min(8u, std::max(1u, std::thread::hardware_concurrency())));
  for (index_t n : sizes) {
    Matrix<double> init = bench::random_dd_matrix(n, 3);
    double fl = bench::flops_lu(n);
    auto run = [&](const char* label, Engine e) {
      return report.timed(label, n, fl, [&] { time_engine(init, e, base); });
    };
    double t_gep = run("GEP", Engine::Iterative);
    double t_rm = run("I-GEP rm", Engine::IGep);
    double t_igep = run("I-GEP", Engine::IGepZ);
    double t_blas = run("blocked", Engine::Blocked);
    auto pct = [&](double t) { return 100.0 * fl / t / 1e9 / peak; };
    table.add_row({Table::integer(n), Table::num(t_gep, 3),
                   Table::num(t_rm, 3), Table::num(t_igep, 3),
                   Table::num(t_blas, 3), Table::num(pct(t_gep), 1),
                   Table::num(pct(t_igep), 1), Table::num(pct(t_blas), 1),
                   Table::num(t_igep / t_blas, 2)});

    // Hardware LLC misses of the I-GEP rm run (same algorithm the
    // simulator replays below).
    obs::HwCounters probe;
    probe.start();
    time_engine(init, Engine::IGep, base);
    obs::HwSample hw = probe.stop();

    long steals = 0;
    double t_par = time_parallel(init, base, par_threads, &steals);
    report.add({"I-GEP ws-parallel", n, t_par, fl / t_par / 1e9,
                pct(t_par), obs::HwSample{},
                {{"threads", static_cast<double>(par_threads)},
                 {"steals", static_cast<double>(steals)}}});

    PageCacheStats pc;
    double t_ooc = time_ooc(init, base, &pc);
    report.add({"I-GEP out-of-core", n, t_ooc, fl / t_ooc / 1e9,
                pct(t_ooc), obs::HwSample{},
                {{"pc_hits", static_cast<double>(pc.hits)},
                 {"pc_misses", static_cast<double>(pc.misses())},
                 {"pc_writebacks", static_cast<double>(pc.page_outs)}}});

    std::string sim_col = "-";
    if (n <= sim_cap) {
      CacheStats sim = simulate_igep_lu(init, base, llc_bytes, llc_line);
      sim_col = Table::integer(static_cast<long long>(sim.misses));
      report.annotate("sim_llc_misses", static_cast<double>(sim.misses));
    }
    inst.add_row({Table::integer(n), Table::num(t_par, 3),
                  Table::integer(par_threads), Table::integer(steals),
                  Table::num(t_ooc, 3),
                  Table::integer(static_cast<long long>(pc.hits)),
                  Table::integer(static_cast<long long>(pc.misses())),
                  hw.has_llc
                      ? Table::integer(static_cast<long long>(hw.llc_misses))
                      : std::string("n/a"),
                  sim_col});
  }
  table.print(std::cout);
  table.write_csv("fig10_ge.csv");
  std::printf("\ninstrumentation (LLC sim geometry: %llu KB, %llu B lines; "
              "hw counters via perf_event_open):\n",
              static_cast<unsigned long long>(llc_bytes / 1024),
              static_cast<unsigned long long>(llc_line));
  inst.print(std::cout);
  std::printf(
      "\npaper: GotoBLAS 75-83%% peak, I-GEP 45-55%%, GEP 7-9%%;\n"
      "expected shape: blocked > I-GEP >> GEP, blocked/I-GEP ~ 1.5x.\n");
  report.write();
  return 0;
}
