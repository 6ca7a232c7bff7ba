// Figure 12 reproduction: speedup of multithreaded I-GEP for MM, GE and
// FW as the number of processors grows from 1 to 8.
//
// Paper (8-proc Opteron 850, n = 5000): speedup at 8 threads is 6.0x for
// MM, 5.73x for FW and 5.33x for GE; MM parallelizes best because its
// D-only recursion has span O(n) vs O(n log² n).
//
// This host may have fewer cores than 8, so the bench reports BOTH:
//   (a) the schedule-simulated speedup (greedy list scheduling of the
//       real fork-join DAG with flop-count costs) for p = 1..8 — the
//       machine-independent reproduction of the figure's shape; and
//   (b) measured wall time of the real pthreads execution for 1..8
//       threads (meaningful only up to the core count, printed for
//       completeness).
#include "bench_common.hpp"

#include <functional>
#include <thread>

#include "apps/apps.hpp"
#include "parallel/dag_sim.hpp"

namespace {

using namespace gep;
using apps::Engine;

}  // namespace

int main() {
  double peak =
      bench::print_host_banner("Figure 12: multithreaded I-GEP speedup");
  const bool small = bench::small_run();
  bench::BenchReport report("fig12_parallel", peak);
  // n/base = 16 keeps the DAG coarse enough that span effects show at
  // p = 8 (with very fine DAGs greedy scheduling hides the differences
  // the paper measured; see EXPERIMENTS.md).
  const index_t n_sim = small ? 512 : 1024;
  const index_t base = 64;

  // (a) schedule-simulated speedups.
  Table sim({"p", "MM speedup", "FW speedup", "GE speedup", "LU speedup"});
  auto mm = build_igep_dag(DagProblem::MatMul, n_sim, base);
  auto fw = build_igep_dag(DagProblem::FloydWarshall, n_sim, base);
  auto ge = build_igep_dag(DagProblem::Gaussian, n_sim, base);
  auto lu = build_igep_dag(DagProblem::LU, n_sim, base);
  const double w_mm = dag_work(mm), w_fw = dag_work(fw), w_ge = dag_work(ge),
               w_lu = dag_work(lu);
  for (int p = 1; p <= 8; ++p) {
    const double s_mm = w_mm / dag_makespan(mm, p);
    const double s_fw = w_fw / dag_makespan(fw, p);
    const double s_ge = w_ge / dag_makespan(ge, p);
    const double s_lu = w_lu / dag_makespan(lu, p);
    sim.add_row({Table::integer(p), Table::num(s_mm, 2), Table::num(s_fw, 2),
                 Table::num(s_ge, 2), Table::num(s_lu, 2)});
    bench::BenchRun r;
    r.label = "sim-speedup p=" + std::to_string(p);
    r.n = n_sim;
    r.extra = {{"mm", s_mm}, {"fw", s_fw}, {"ge", s_ge}, {"lu", s_lu}};
    report.add(std::move(r));
  }
  std::printf("(a) DAG schedule simulation, n = %lld, base = %lld:\n",
              static_cast<long long>(n_sim), static_cast<long long>(base));
  sim.print(std::cout);
  sim.write_csv("fig12_sim_speedup.csv");
  std::printf(
      "paper at p=8, n=5000: MM 6.0x, FW 5.73x, GE 5.33x (MM > FW > GE).\n\n");

  // (b) real pthreads execution on this host.
  const index_t n_real = small ? 256 : 1024;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("(b) real fork-join execution, n = %lld (host has %u core(s); "
              "speedups saturate there):\n",
              static_cast<long long>(n_real), cores);
  Matrix<double> fw_init = bench::random_dist_matrix(n_real, 1);
  Matrix<double> lu_init = bench::random_dd_matrix(n_real, 2);
  Matrix<double> a = bench::random_matrix(n_real, 3);
  Matrix<double> b = bench::random_matrix(n_real, 4);

  auto time_fw = [&](int threads) {
    Matrix<double> d = fw_init;
    WallTimer t;
    apps::floyd_warshall(d, Engine::IGep, {base, threads, Runtime::ForkJoin});
    return t.seconds();
  };
  auto time_lu = [&](int threads) {
    Matrix<double> m = lu_init;
    WallTimer t;
    apps::lu_decompose(m, Engine::IGep, {base, threads, Runtime::ForkJoin});
    return t.seconds();
  };
  auto time_mm = [&](int threads) {
    Matrix<double> c(n_real, n_real, 0.0);
    WallTimer t;
    apps::multiply_add(c, a, b, Engine::IGep,
                       {base, threads, Runtime::ForkJoin});
    return t.seconds();
  };

  const double fl_mm = bench::flops_mm(n_real);
  const double fl_fw = bench::flops_fw(n_real);
  const double fl_lu = bench::flops_lu(n_real);
  auto record = [&](const char* kind, int p, double fl, double t,
                    double t1) {
    bench::BenchRun r;
    r.label = std::string(kind) + " p=" + std::to_string(p);
    r.n = n_real;
    r.seconds = t;
    r.gflops = fl / t / 1e9;
    r.pct_peak = peak > 0 ? 100.0 * r.gflops / peak : 0.0;
    r.extra = {{"threads", static_cast<double>(p)}, {"speedup", t1 / t}};
    report.add(std::move(r));
  };
  const double fw1 = time_fw(1), lu1 = time_lu(1), mm1 = time_mm(1);
  record("MM", 1, fl_mm, mm1, mm1);
  record("FW", 1, fl_fw, fw1, fw1);
  record("LU", 1, fl_lu, lu1, lu1);
  Table real({"threads", "MM (s)", "MM speedup", "FW (s)", "FW speedup",
              "GE/LU (s)", "GE/LU speedup"});
  real.add_row({Table::integer(1), Table::num(mm1, 3), Table::num(1.0, 2),
                Table::num(fw1, 3), Table::num(1.0, 2), Table::num(lu1, 3),
                Table::num(1.0, 2)});
  for (int p : {2, 4, 8}) {
    double mmp = time_mm(p), fwp = time_fw(p), lup = time_lu(p);
    record("MM", p, fl_mm, mmp, mm1);
    record("FW", p, fl_fw, fwp, fw1);
    record("LU", p, fl_lu, lup, lu1);
    real.add_row({Table::integer(p), Table::num(mmp, 3),
                  Table::num(mm1 / mmp, 2), Table::num(fwp, 3),
                  Table::num(fw1 / fwp, 2), Table::num(lup, 3),
                  Table::num(lu1 / lup, 2)});
  }
  real.print(std::cout);
  real.write_csv("fig12_real_speedup.csv");

  // (c) dependency-driven DAG runtime vs the fork-join invoker, at equal
  // REQUESTED thread count. The DAG drops the recursion's join barriers
  // (tasks release the moment their block dependencies retire,
  // dispatched by critical-path priority) and, as part of its resource
  // policy, clamps its worker set to the host's concurrency — a
  // dependency-driven frontier keeps every worker busy, so
  // oversubscription only thrashes the shared cache. The fork-join
  // engine runs the request as given (its historical behaviour). Each
  // leg is the MIN over repeats: single-shot wall times on a shared
  // host swing far more than the runtimes differ. The JSON carries
  // speedup_vs_forkjoin for the CI gate; labels are host-independent
  // (no thread count), effective worker counts ride in `extra`.
  const index_t n_dag = small ? 256 : 2048;
  const int p_dag = 4;
  const int dag_workers = std::min(
      p_dag, static_cast<int>(std::max(1u,
                                       std::thread::hardware_concurrency())));
  const int reps = 3;
  std::printf("\n(c) DAG runtime vs fork-join, n = %lld, p = %d "
              "(dag workers: %d), min of %d:\n",
              static_cast<long long>(n_dag), p_dag, dag_workers, reps);
  Matrix<double> fw_dag_init = bench::random_dist_matrix(n_dag, 5);
  Matrix<double> lu_dag_init = bench::random_dd_matrix(n_dag, 6);
  Matrix<double> a_dag = bench::random_matrix(n_dag, 7);
  Matrix<double> b_dag = bench::random_matrix(n_dag, 8);
  Table dag_tbl(
      {"problem", "forkjoin (s)", "dag (s)", "dag speedup vs forkjoin"});
  auto dag_leg = [&](const char* kind, double fl, double updates_one_pass,
                     const std::function<double(apps::Runtime,
                                                Matrix<double>&)>& run) {
    Matrix<double> out_fj, out_dag;
    // Live /progress over the whole leg (2 runtimes x reps passes); the
    // stat server was armed by the banner when $GEP_STAT_PORT is set.
    obs::ProgressMeter meter;
    meter.begin(2.0 * reps * updates_one_pass, 2.0 * reps * fl);
    obs::ScopedStatProgress stat_progress(meter, kind);
    double t_fj = run(apps::Runtime::ForkJoin, out_fj);
    for (int r = 1; r < reps; ++r) {
      t_fj = std::min(t_fj, run(apps::Runtime::ForkJoin, out_fj));
    }
    bench::BenchRun r_fj;
    r_fj.label = std::string(kind) + " forkjoin";
    r_fj.n = n_dag;
    r_fj.seconds = t_fj;
    r_fj.gflops = fl / t_fj / 1e9;
    r_fj.pct_peak = peak > 0 ? 100.0 * r_fj.gflops / peak : 0.0;
    r_fj.extra = {{"threads", static_cast<double>(p_dag)}};
    report.add(std::move(r_fj));
    double t_dag = run(apps::Runtime::Dag, out_dag);
    for (int r = 1; r < reps; ++r) {
      t_dag = std::min(t_dag, run(apps::Runtime::Dag, out_dag));
    }
    bench::BenchRun r_dag;
    r_dag.label = std::string(kind) + " dag";
    r_dag.n = n_dag;
    r_dag.seconds = t_dag;
    r_dag.gflops = fl / t_dag / 1e9;
    r_dag.pct_peak = peak > 0 ? 100.0 * r_dag.gflops / peak : 0.0;
    r_dag.extra = {{"threads", static_cast<double>(p_dag)},
                   {"workers", static_cast<double>(dag_workers)},
                   {"speedup_vs_forkjoin", t_fj / t_dag}};
    report.add(std::move(r_dag));
    // Bit-identical across runtimes, or the comparison is meaningless.
    for (index_t i = 0; i < n_dag; ++i) {
      for (index_t j = 0; j < n_dag; ++j) {
        if (out_fj(i, j) != out_dag(i, j)) {
          std::fprintf(stderr, "FAIL: %s DAG differs from fork-join at "
                       "(%lld,%lld)\n", kind, static_cast<long long>(i),
                       static_cast<long long>(j));
          std::exit(1);
        }
      }
    }
    dag_tbl.add_row({kind, Table::num(t_fj, 3), Table::num(t_dag, 3),
                     Table::num(t_fj / t_dag, 2)});
  };
  dag_leg("FW", bench::flops_fw(n_dag),
          obs::typed_cube_updates(static_cast<double>(n_dag)),
          [&](apps::Runtime rt, Matrix<double>& out) {
            out = fw_dag_init;
            WallTimer t;
            apps::floyd_warshall(out, Engine::IGep, {base, p_dag, rt});
            return t.seconds();
          });
  dag_leg("LU", bench::flops_lu(n_dag),
          obs::typed_lu_updates(static_cast<double>(n_dag),
                                static_cast<double>(base)),
          [&](apps::Runtime rt, Matrix<double>& out) {
            out = lu_dag_init;
            WallTimer t;
            apps::lu_decompose(out, Engine::IGep, {base, p_dag, rt});
            return t.seconds();
          });
  dag_leg("MM", bench::flops_mm(n_dag),
          obs::typed_cube_updates(static_cast<double>(n_dag)),
          [&](apps::Runtime rt, Matrix<double>& out) {
            out = Matrix<double>(n_dag, n_dag, 0.0);
            WallTimer t;
            apps::multiply_add(out, a_dag, b_dag, Engine::IGep,
                               {base, p_dag, rt});
            return t.seconds();
          });
  dag_tbl.print(std::cout);
  dag_tbl.write_csv("fig12_dag_runtime.csv");
  report.write();
  return 0;
}
