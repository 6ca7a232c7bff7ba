// Figure 7 reproduction: out-of-core GEP vs I-GEP vs C-GEP (both space
// variants) for Floyd-Warshall through the STXXL-substitute page cache.
//
// 7(a): fixed n and B, sweep M. Paper: GEP's I/O wait is essentially flat
//       in M and SEVERAL HUNDRED times larger than I-GEP/C-GEP; the
//       recursive algorithms improve as M grows (Θ(n³/(B√M)) transfers).
// 7(b): fixed n and M, sweep M/B by varying B. Paper: I/O wait grows
//       roughly linearly in M/B for the recursive algorithms.
//
// I/O wait is simulated with the paper's disk (4.5 ms seek, ~86 MB/s);
// page transfer COUNTS are exact, so the shapes are hardware-independent.
#include "bench_common.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "extmem/checkpoint.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "gep/cgep.hpp"
#include "gep/igep.hpp"
#include "gep/iterative.hpp"
#include "parallel/work_stealing.hpp"

namespace {

using namespace gep;

enum class Algo { Gep, IGep, CGep4, CGepCompact };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Gep: return "GEP";
    case Algo::IGep: return "I-GEP";
    case Algo::CGep4: return "C-GEP(4n^2)";
    case Algo::CGepCompact: return "C-GEP(compact)";
  }
  return "?";
}

struct OocResult {
  double io_wait_s = 0;
  std::uint64_t page_ios = 0;
};

// Runs one algorithm out-of-core with the given disk layout (MatT is
// OocMatrix — row-major pages — or OocTiledMatrix, the STXXL-style tiled
// layout the headline tables use; see the layout ablation below).
template <template <class> class MatT>
OocResult run_ooc(Algo algo, const Matrix<double>& init, std::uint64_t M,
                  std::uint64_t B, index_t base) {
  const index_t n = init.rows();
  PageCache cache(M, B);
  MatT<double> c(cache, n, n);
  c.load(init);
  auto clone_into = [&](MatT<double>& dst) {
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) dst.set(i, j, c.get(i, j));
  };
  if (algo == Algo::CGep4) {
    MatT<double> u0(cache, n, n), u1(cache, n, n), v0(cache, n, n),
        v1(cache, n, n);
    clone_into(u0);
    clone_into(u1);
    clone_into(v0);
    clone_into(v1);
    cache.reset_stats();
    run_cgep_with_aux(c, u0, u1, v0, v1, MinPlusF{}, FullSet{n}, {base});
  } else if (algo == Algo::CGepCompact) {
    const index_t h = n / 2;
    MatT<double> u0(cache, n, h), u1(cache, n, h), v0(cache, h, n),
        v1(cache, h, n);
    cache.reset_stats();
    run_cgep_compact_with_aux(c, u0, u1, v0, v1, MinPlusF{}, FullSet{n},
                              {base});
  } else {
    cache.reset_stats();
    if (algo == Algo::Gep) {
      run_gep(c, MinPlusF{}, FullSet{n});
    } else {
      run_igep(c, MinPlusF{}, FullSet{n}, {base});
    }
  }
  cache.flush();
  return {cache.stats().io_wait_seconds, cache.stats().io()};
}

}  // namespace

int main(int argc, char** argv) {
  // --fault-rate=X: run the typed-engine legs through a deterministic
  // FaultInjector (seed 42) at per-op probability X for read/write
  // errors and in-flight bit flips (X/2 for torn writes). Results must
  // still be bit-identical across legs; the robust.* recovery counters
  // land in the BENCH JSON under report "fig7_outofcore_faults".
  // --ckpt-every=N / --ckpt-interval=S: add a checkpointed leg (snapshot
  // every N retired leaves and/or every S seconds of wall clock) whose
  // ckpt.* costs land in the BENCH JSON under "fig7_outofcore_ckpt"; the
  // CI smoke gate asserts the overhead stays under 10% of the leg's wall.
  double fault_rate = 0;
  std::uint64_t ckpt_every = 0;
  double ckpt_interval = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--fault-rate=", 13) == 0) {
      fault_rate = std::strtod(arg + 13, nullptr);
    } else if (std::strncmp(arg, "--ckpt-every=", 13) == 0) {
      ckpt_every = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--ckpt-interval=", 16) == 0) {
      ckpt_interval = std::strtod(arg + 16, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--fault-rate=X] [--ckpt-every=N]"
                   " [--ckpt-interval=S]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool ckpt_on = ckpt_every > 0 || ckpt_interval > 0;
  const double peak = bench::print_host_banner(
      "Figure 7: out-of-core I/O wait, GEP vs I-GEP vs C-GEP");
  // Cooperative SIGINT/SIGTERM: the typed legs poll a stop flag at leaf
  // granularity and unwind through JobCancelled, so an interrupted run
  // still flushes write-behind and leaves a decodable flight dump.
  obs::flight::install_job_signal_handlers();
  // SIGUSR2 -> checkpoint-and-continue (consumed by the ckpt leg's
  // coordinator at the next leaf retirement; inert without --ckpt-*).
  install_checkpoint_signal_handler();
  const bool small = bench::small_run();
  const index_t n = small ? 128 : 512;
  // Base 8: C-GEP touches five matrices per box, so the recursion must
  // descend further than in-core before a box's working set fits small M
  // — with a large iterative base the base case is no longer cache-sized
  // and LRU thrashes (see EXPERIMENTS.md). Applied to every algorithm.
  const index_t base = 8;
  const std::uint64_t n2bytes = static_cast<std::uint64_t>(n) * n * 8;
  Matrix<double> init = bench::random_dist_matrix(n, 5);
  std::printf("n = %lld (matrix = %.1f MB on disk)\n\n",
              static_cast<long long>(n), n2bytes / 1e6);

  // --- 7(a): vary M at fixed B ------------------------------------------
  // B scales with n so that even the smallest M is tens of frames.
  const std::uint64_t B_a = small ? 2 * 1024 : 16 * 1024;
  Table ta({"M / n^2", "algo", "I/O wait (sim s)", "page I/Os"});
  for (double frac : {0.125, 0.25, 0.5, 1.0}) {
    const std::uint64_t M = static_cast<std::uint64_t>(frac * n2bytes);
    for (Algo a : {Algo::Gep, Algo::IGep, Algo::CGep4, Algo::CGepCompact}) {
      // GEP at the smallest memory sizes is extremely slow; the paper's
      // plot holds GEP nearly flat in M, so measure it once at the
      // largest M and reuse (noted in EXPERIMENTS.md).
      OocResult r = run_ooc<OocTiledMatrix>(a, init, M, B_a, base);
      ta.add_row({Table::num(frac, 3), algo_name(a), Table::num(r.io_wait_s, 2),
                  Table::integer(static_cast<long long>(r.page_ios))});
    }
  }
  ta.print(std::cout);
  ta.write_csv("fig7a_outofcore.csv");

  // --- 7(b): vary B (i.e. M/B) at fixed M --------------------------------
  const std::uint64_t M_b = n2bytes / 2;
  Table tb({"M/B", "B (KB)", "algo", "I/O wait (sim s)", "page I/Os"});
  const std::uint64_t b_shift = small ? 8 : 1;  // scale B down in small mode
  for (std::uint64_t B0 : {64 * 1024, 32 * 1024, 16 * 1024, 8 * 1024}) {
    const std::uint64_t B = B0 / b_shift;
    for (Algo a : {Algo::Gep, Algo::IGep, Algo::CGep4, Algo::CGepCompact}) {
      OocResult r = run_ooc<OocTiledMatrix>(a, init, M_b, B, base);
      (void)B0;
      tb.add_row({Table::integer(static_cast<long long>(M_b / B)),
                  Table::num(static_cast<double>(B) / 1024.0, 0), algo_name(a),
                  Table::num(r.io_wait_s, 2),
                  Table::integer(static_cast<long long>(r.page_ios))});
    }
  }
  tb.print(std::cout);
  tb.write_csv("fig7b_outofcore.csv");

  // --- layout ablation: row-major vs tile-major on-disk pages -----------
  // (the out-of-core analogue of the Section 4.2 bit-interleaved layout)
  {
    const std::uint64_t M = n2bytes / 4, B = B_a;
    Table tc({"layout", "algo", "I/O wait (sim s)", "page I/Os"});
    for (Algo a : {Algo::IGep, Algo::CGep4}) {
      OocResult r_rm = run_ooc<OocMatrix>(a, init, M, B, base);
      OocResult r_tm = run_ooc<OocTiledMatrix>(a, init, M, B, base);
      tc.add_row({"row-major", algo_name(a), Table::num(r_rm.io_wait_s, 2),
                  Table::integer(static_cast<long long>(r_rm.page_ios))});
      tc.add_row({"tile-major", algo_name(a), Table::num(r_tm.io_wait_s, 2),
                  Table::integer(static_cast<long long>(r_tm.page_ios))});
    }
    std::printf("layout ablation (M = n^2/4, B = %llu KB):\n",
                static_cast<unsigned long long>(B / 1024));
    tc.print(std::cout);
    tc.write_csv("fig7_layout_ablation.csv");
  }
  // --- typed engine: sequential vs DAG + prefetch -----------------------
  // The block-granular typed engine (pinned tiles, raw-pointer kernels):
  // sequential and synchronous, then on the work-stealing pool with the
  // scheduler's lookahead prefetch through the cache's async I/O worker.
  // Same (n, M, B) across legs; all legs must produce identical results
  // (the task graph keeps every tile's update order).
  {
    bench::BenchReport report(fault_rate > 0 ? "fig7_outofcore_faults"
                              : ckpt_on      ? "fig7_outofcore_ckpt"
                                             : "fig7_outofcore",
                              peak);
    RobustOptions robust;
    if (fault_rate > 0) {
      robust.faults.seed = 42;
      robust.faults.p_read_error = fault_rate;
      robust.faults.p_write_error = fault_rate;
      robust.faults.p_bitflip_read = fault_rate;
      robust.faults.p_torn_write = fault_rate / 2;
      robust.retry.max_attempts = 10;  // survive flip-on-retry chains
      std::printf("fault injection: rate %g, seed %llu\n\n", fault_rate,
                  static_cast<unsigned long long>(robust.faults.seed));
    }
    // M = n^2/2: the typed legs pin up to 4 tiles per worker, and the
    // prefetcher needs unpinned frames to land pages in — the n^2/4 cache
    // of the sweeps above would leave it almost no room at small scale.
    const std::uint64_t M = n2bytes / 2, B = B_a;
    // Each in-flight leaf holds up to 4 pinned tiles; cap workers so the
    // cache always has evictable frames (see docs/EXTMEM.md sizing rule).
    const int threads = std::clamp(
        std::min(static_cast<int>(std::thread::hardware_concurrency()),
                 static_cast<int>(M / B) / 6),
        2, 8);
    Table td({"engine", "wall (s)", "sim I/O wait (s)", "page I/Os",
              "prefetch hits", "hit rate"});
    Matrix<double> ref;
    double t_sync = 0;
    // Fault-injection telemetry of the run just timed, on every run of a
    // --fault-rate invocation.
    auto annotate_faults = [&](const PageCacheStats& s) {
      if (fault_rate <= 0) return;
      report.annotate("fault_rate", fault_rate);
      report.annotate("robust.retries", static_cast<double>(s.io_retries));
      report.annotate("robust.crc_failures",
                      static_cast<double>(s.crc_failures));
      report.annotate("robust.io_hard_failures",
                      static_cast<double>(s.io_hard_failures));
      report.annotate("robust.writeback_failures",
                      static_cast<double>(s.writeback_failures));
      report.annotate("robust.prefetch_errors",
                      static_cast<double>(s.prefetch_errors));
      report.annotate("robust.async_degraded",
                      static_cast<double>(s.async_degraded));
    };
    // Realize 1% of the modeled disk latency as actual sleep so there is
    // wall-clock latency for the async worker to hide (page faults on
    // NVMe-backed temp files are otherwise near-instant and the overlap
    // would be unmeasurable). Identical for both legs.
    DiskModel disk;
    disk.realize_fraction = 0.01;
    // One driver: with no pool it is the sequential out-of-core I-GEP;
    // on `threads` workers the scheduler's ready frontier IS the
    // prefetch stream (lookahead tasks -> page hints).
    auto leg = [&](const char* label, bool parallel, bool prefetch) {
      PageCache cache(M, B, disk, robust);
      OocTiledMatrix<double> m(cache, n, n);
      m.load(init);
      cache.reset_stats();
      if (prefetch) cache.enable_async_io();
      // Progress/ETA from the typed engine's own work counters: timed()
      // runs $GEP_BENCH_REPEATS passes (plus one warmup when > 1), each
      // a full n^3 FW cube. $GEP_PROGRESS_SEC turns on the live printer.
      const int reps = bench::bench_repeats();
      const double passes = reps > 1 ? reps + 1.0 : 1.0;
      obs::ProgressMeter meter;
      meter.begin(passes * obs::typed_cube_updates(static_cast<double>(n)),
                  passes * bench::flops_fw(n));
      obs::ProgressReporter reporter(
          &meter, obs::ProgressReporter::env_interval(), label);
      // I/O-bound accounting: page transfers against the Θ(n³/(B√M)) +
      // scan prediction. The ratio's absolute value calibrates the Θ
      // constant; the gates only check stability.
      const obs::IoBoundPrediction pred = obs::igep_io_prediction(
          static_cast<double>(n), static_cast<double>(M),
          static_cast<double>(B));
      // Live telemetry: while the leg runs, /progress serves this meter
      // and /io the leg-cumulative transfers against the passes-scaled
      // prediction ($GEP_STAT_PORT armed the server in the banner).
      obs::IoBoundPrediction pred_run = pred;
      pred_run.cube_transfers *= passes;
      pred_run.scan_transfers *= passes;
      const std::uint64_t io_base = cache.stats().io();
      obs::ScopedStatProgress stat_progress(meter, label);
      obs::ScopedStatIoModel stat_io(
          pred_run, [&cache, io_base] { return cache.stats().io() - io_base; });
      std::uint64_t io_pass = 0;  // page I/Os of the last timed pass
      double dt = 0;
      try {
        dt = report.timed(label, n, bench::flops_fw(n), [&] {
          const std::uint64_t io0 = cache.stats().io();
          std::unique_ptr<WorkStealingPool> pool;
          if (parallel) pool = std::make_unique<WorkStealingPool>(threads);
          ooc_igep_floyd_warshall_dag(m, pool.get(), {.prefetch = prefetch});
          io_pass = cache.stats().io() - io0;
        });
      } catch (const obs::JobCancelled&) {
        // Clean shutdown: stop the async worker, flush write-behind so
        // the backing file is consistent, then dump the flight recorder
        // (with metrics — the process is healthy, just interrupted).
        std::fprintf(stderr,
                     "\n[fig7] cancelled by signal; flushing write-behind "
                     "and dumping flight recorder\n");
        if (prefetch) cache.disable_async_io();
        cache.flush();
        obs::flight::dump_default();
        std::exit(130);
      }
      if (prefetch) cache.disable_async_io();
      const PageCacheStats s = cache.stats();
      report.annotate("io_wait_seconds", s.io_wait_seconds);
      report.annotate("io_wait_async_seconds", s.io_wait_async_seconds);
      report.annotate("page_ios", static_cast<double>(s.io()));
      report.annotate("prefetch_hits", static_cast<double>(s.prefetch_hits));
      report.annotate("prefetch_hit_rate", s.prefetch_hit_rate());
      report.annotate("threads", parallel ? threads : 1);
      if (prefetch) {
        report.annotate("dag_lookahead",
                        static_cast<double>(OocDagOptions{}.lookahead));
      }
      report.annotate("io_measured", static_cast<double>(io_pass));
      report.annotate("io_predicted", pred.total());
      report.annotate("io_ratio", obs::io_bound_ratio(io_pass, pred));
      report.annotate("progress_final_fraction", meter.sample().fraction);
      if (t_sync > 0) report.annotate("speedup_vs_sync", t_sync / dt);
      annotate_faults(s);
      td.add_row({label, Table::num(dt, 3), Table::num(s.io_wait_seconds, 2),
                  Table::integer(static_cast<long long>(s.io())),
                  Table::integer(static_cast<long long>(s.prefetch_hits)),
                  Table::num(s.prefetch_hit_rate(), 3)});
      Matrix<double> out = m.to_matrix();
      if (ref.rows() == 0) {
        ref = std::move(out);
      } else {
        for (index_t i = 0; i < n; ++i)
          for (index_t j = 0; j < n; ++j)
            if (out(i, j) != ref(i, j)) {
              std::fprintf(stderr, "FAIL: %s differs from sequential at "
                           "(%lld,%lld)\n", label, static_cast<long long>(i),
                           static_cast<long long>(j));
              std::exit(1);
            }
      }
      return dt;
    };
    t_sync = leg("typed sync seq", false, false);
    leg("typed dag+prefetch", true, true);
    // --- checkpointed leg (--ckpt-every / --ckpt-interval) --------------
    // Same job as "typed sync seq" with crash-consistent snapshots cut by
    // the requested triggers; SIGTERM/SIGINT checkpoints before exiting
    // and SIGUSR2 checkpoints-and-continues. The snapshot chain lands in
    // fig7_ckpt_snapshots/ for gep_ckpt_inspect.
    if (ckpt_on) {
      const std::string ckdir = "fig7_ckpt_snapshots";
      ::mkdir(ckdir.c_str(), 0755);
      auto clear_dir = [&ckdir] {
        DIR* d = ::opendir(ckdir.c_str());
        if (d == nullptr) return;
        for (struct dirent* e = ::readdir(d); e != nullptr;
             e = ::readdir(d)) {
          const std::string nm = e->d_name;
          if (nm != "." && nm != "..") ::unlink((ckdir + "/" + nm).c_str());
        }
        ::closedir(d);
      };
      PageCache cache(M, B, disk, robust);
      OocTiledMatrix<double> m(cache, n, n);
      m.load(init);
      cache.reset_stats();
      std::unique_ptr<CheckpointCoordinator> ck;
      auto make_coordinator = [&] {
        CheckpointOptions co;
        co.dir = ckdir;
        co.job_id = 0xF1670001;
        co.every_n_leaves = ckpt_every;
        co.interval_sec = ckpt_interval;
        ck = std::make_unique<CheckpointCoordinator>(cache, co);
        ck->add_matrix(m.file_id(), static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(m.tile_side()),
                       sizeof(double), m.file_pages());
      };
      // A chain left behind by a SIGTERMed previous invocation resumes
      // here: pages + frontier replay before the timed pass, which then
      // only runs the remainder (and keeps appending to the chain). A
      // complete or invalid chain is discarded and the pass runs fresh —
      // probed via load_chain (validate-only), because resume() installs
      // pages and re-running FW over its own min-plus closure is not
      // bit-stable in floating point.
      bool resumed = false;
      make_coordinator();
      ck->bind(DagProblem::FloydWarshall, n, m.tile_side(), false,
               build_typed_task_graph(DagProblem::FloydWarshall, n,
                                      m.tile_side())
                   .size());
      try {
        const auto chain = load_chain(ckdir, 0xF1670001ULL);
        if (!chain.empty() &&
            chain.back().header.done_count < chain.back().header.task_count) {
          resumed = ck->resume();
        }
      } catch (const CheckpointError& e) {
        std::fprintf(stderr, "[fig7] stale checkpoint chain rejected: %s\n",
                     e.what());
      }
      if (resumed) {
        std::fprintf(stderr,
                     "[fig7] resumed job %llx: %llu/%llu leaves done\n",
                     0xF1670001ULL,
                     static_cast<unsigned long long>(ck->done_leaves()),
                     static_cast<unsigned long long>(ck->task_count()));
      }
      const bool resumed_this_run = resumed;
      double dt = 0;
      try {
        dt = report.timed("typed sync seq+ckpt", n, bench::flops_fw(n), [&] {
          // Fresh coordinator + chain per pass (except a resumed first
          // pass): a stale tail from the previous pass would break the
          // chain's seq contiguity.
          if (!resumed) {
            clear_dir();
            make_coordinator();
          }
          resumed = false;
          ooc_igep_floyd_warshall_dag(
              m, nullptr, {.prefetch = false, .ckpt = ck.get()});
        });
      } catch (const obs::JobCancelled&) {
        // Checkpoint-then-exit: flush write-behind, cut a final snapshot
        // at the quiesced point, then leave with the interrupt status —
        // the chain in fig7_ckpt_snapshots/ resumes the job.
        std::fprintf(stderr,
                     "\n[fig7] cancelled by signal; checkpointing before "
                     "exit\n");
        cache.flush();
        if (ck != nullptr) ck->checkpoint_now();
        obs::flight::dump_default();
        std::exit(130);
      }
      const CheckpointStats cs = ck->stats();
      report.annotate("ckpt_resumed", resumed_this_run ? 1.0 : 0.0);
      report.annotate("ckpt_every_n_leaves", static_cast<double>(ckpt_every));
      report.annotate("ckpt_interval_sec", ckpt_interval);
      report.annotate("ckpt_count", static_cast<double>(cs.count));
      report.annotate("ckpt_skipped", static_cast<double>(cs.skipped));
      report.annotate("ckpt_failed", static_cast<double>(cs.failed));
      report.annotate("ckpt_bytes", static_cast<double>(cs.bytes));
      report.annotate("ckpt_pages", static_cast<double>(cs.pages));
      report.annotate("ckpt_wall_seconds", cs.wall_seconds);
      report.annotate("ckpt_overhead_fraction",
                      dt > 0 ? cs.wall_seconds / dt : 0.0);
      td.add_row({"typed sync seq+ckpt", Table::num(dt, 3),
                  Table::num(cache.stats().io_wait_seconds, 2),
                  Table::integer(static_cast<long long>(cache.stats().io())),
                  Table::integer(0), Table::num(0.0, 3)});
      Matrix<double> out = m.to_matrix();
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < n; ++j)
          if (out(i, j) != ref(i, j)) {
            std::fprintf(stderr,
                         "FAIL: checkpointed leg differs from sequential "
                         "at (%lld,%lld)\n",
                         static_cast<long long>(i),
                         static_cast<long long>(j));
            std::exit(1);
          }
      std::printf("checkpoints: %llu cut, %llu skipped, %.1f KB, %.3fs "
                  "(%.1f%% of leg wall)\n",
                  static_cast<unsigned long long>(cs.count),
                  static_cast<unsigned long long>(cs.skipped),
                  cs.bytes / 1e3, cs.wall_seconds,
                  dt > 0 ? 100.0 * cs.wall_seconds / dt : 0.0);
    }
    // Second problem size for the I/O-bound accountant: same B, M kept
    // at n²/2, so measured/predicted should be size-independent (the CI
    // bench-smoke gate checks the two ratios agree within ±25%).
    {
      const index_t n2 = n / 2;
      const std::uint64_t n2b = static_cast<std::uint64_t>(n2) * n2 * 8;
      const std::uint64_t M2 = n2b / 2;
      Matrix<double> init2 = bench::random_dist_matrix(n2, 7);
      PageCache cache(M2, B, disk, robust);
      OocTiledMatrix<double> m(cache, n2, n2);
      m.load(init2);
      cache.reset_stats();
      const int reps = bench::bench_repeats();
      const double passes = reps > 1 ? reps + 1.0 : 1.0;
      obs::ProgressMeter meter;
      meter.begin(passes * obs::typed_cube_updates(static_cast<double>(n2)),
                  passes * bench::flops_fw(n2));
      const obs::IoBoundPrediction pred = obs::igep_io_prediction(
          static_cast<double>(n2), static_cast<double>(M2),
          static_cast<double>(B));
      obs::IoBoundPrediction pred_run = pred;
      pred_run.cube_transfers *= passes;
      pred_run.scan_transfers *= passes;
      const std::uint64_t io_base = cache.stats().io();
      obs::ScopedStatProgress stat_progress(meter, "typed sync seq (n/2)");
      obs::ScopedStatIoModel stat_io(
          pred_run, [&cache, io_base] { return cache.stats().io() - io_base; });
      std::uint64_t io_pass = 0;
      try {
        report.timed("typed sync seq", n2, bench::flops_fw(n2), [&] {
          const std::uint64_t io0 = cache.stats().io();
          ooc_igep_floyd_warshall_dag(m, nullptr, {.prefetch = false});
          io_pass = cache.stats().io() - io0;
        });
      } catch (const obs::JobCancelled&) {
        cache.flush();
        obs::flight::dump_default();
        std::exit(130);
      }
      report.annotate("io_measured", static_cast<double>(io_pass));
      report.annotate("io_predicted", pred.total());
      report.annotate("io_ratio", obs::io_bound_ratio(io_pass, pred));
      report.annotate("progress_final_fraction", meter.sample().fraction);
      annotate_faults(cache.stats());
    }
    std::printf("typed out-of-core FW (M = n^2/2, B = %llu KB, %d threads):\n",
                static_cast<unsigned long long>(B / 1024), threads);
    td.print(std::cout);
    td.write_csv("fig7_typed_engine.csv");
    report.write();
  }
  std::printf(
      "\npaper: GEP waits 100-500x longer than I-GEP/C-GEP; GEP flat in M,\n"
      "I-GEP/C-GEP improve with M; I/O wait grows ~linearly with M/B.\n");
  return 0;
}
