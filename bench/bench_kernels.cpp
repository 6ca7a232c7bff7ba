// Kernel microbenchmarks: the dispatched base-case kernels and the
// BLAS-baseline GEMM, measured on EVERY dispatch path the host runs
// (scalar, avx2, avx512) in one process, each row rated against its own
// level's measured peak. These building blocks set the "% of peak"
// ceilings in Figs. 10 and 11.
//
// Run with no arguments it emits BENCH_kernels.json: per kernel x size
// x path throughput (GF/s, plus Gupdates/s for the semiring kernels),
// per-path speedups, the bare micro-kernels against their peaks, the
// selected dispatch level, and an end-to-end typed I-GEP LU on every
// path. Any argument switches to the google-benchmark harness (e.g.
// --benchmark_filter=...), which measures whatever dispatch level the
// environment selects.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/blas.hpp"
#include "gep/kernels.hpp"
#include "parallel/task_graph.hpp"
#include "simd/dispatch.hpp"
#include "simd/gemm_leaf.hpp"
#include "simd/microkernel.hpp"
#include "util/prng.hpp"

namespace {

using gep::index_t;

std::vector<double> random_buf(index_t n, std::uint64_t seed) {
  gep::SplitMix64 g(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = g.uniform(0.5, 1.5);
  return v;
}

// --- google-benchmark registrations (argument mode) ------------------------

void BM_KernelFW(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 1), u = random_buf(m * m, 2),
       v = random_buf(m * m, 3);
  for (auto _ : state) {
    gep::kernel_fw(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelFW)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelMM(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 4), u = random_buf(m * m, 5),
       v = random_buf(m * m, 6);
  for (auto _ : state) {
    gep::kernel_mm(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * m);
}
BENCHMARK(BM_KernelMM)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelLU_D(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 7), u = random_buf(m * m, 8),
       v = random_buf(m * m, 9), w = random_buf(m * m, 10);
  for (auto _ : state) {
    gep::kernel_lu(x.data(), u.data(), v.data(), w.data(), m, m, m, m, m,
                   false, false);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * m);
}
BENCHMARK(BM_KernelLU_D)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelTC(benchmark::State& state) {
  const index_t m = state.range(0);
  gep::SplitMix64 g(20);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(m * m)),
      u(static_cast<std::size_t>(m * m)), v(static_cast<std::size_t>(m * m));
  for (auto& b : u) b = g.chance(0.3);
  for (auto& b : v) b = g.chance(0.3);
  for (auto _ : state) {
    gep::kernel_tc(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelTC)->Arg(64)->Arg(128);

void BM_KernelBottleneck(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 21), u = random_buf(m * m, 22),
       v = random_buf(m * m, 23);
  for (auto _ : state) {
    gep::kernel_bottleneck(x.data(), u.data(), v.data(), m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelBottleneck)->Arg(64)->Arg(128);

void BM_KernelFWPaths(benchmark::State& state) {
  const index_t m = state.range(0);
  auto x = random_buf(m * m, 24), u = random_buf(m * m, 25),
       v = random_buf(m * m, 26);
  std::vector<std::int32_t> sx(static_cast<std::size_t>(m * m), 0),
      su(static_cast<std::size_t>(m * m), 1);
  for (auto _ : state) {
    gep::kernel_fw_paths(x.data(), u.data(), v.data(), sx.data(), su.data(),
                         m, m, m, m, m, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * m);
}
BENCHMARK(BM_KernelFWPaths)->Arg(64)->Arg(128);

void BM_BlasDgemm(benchmark::State& state) {
  const index_t n = state.range(0);
  auto a = random_buf(n * n, 11), b = random_buf(n * n, 12),
       c = random_buf(n * n, 13);
  for (auto _ : state) {
    gep::blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_BlasDgemm)->Arg(128)->Arg(256)->Arg(512);

// --- JSON report mode ------------------------------------------------------

// Seconds per invocation: repeats fn until the batch takes long enough
// to time reliably, best of 3 batches (the host is a noisy 1-core VM).
template <class Fn>
double time_per_call(Fn&& fn) {
  long iters = 1;
  for (;;) {
    gep::WallTimer t;
    for (long i = 0; i < iters; ++i) fn();
    if (t.seconds() >= 0.02) break;
    iters *= 4;
  }
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    gep::WallTimer t;
    for (long i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / static_cast<double>(iters));
  }
  return best;
}

const char* path_name(gep::simd::Level l) { return gep::simd::level_name(l); }

// Which dispatch paths this process can actually measure.
std::vector<gep::simd::Level> measurable_paths() {
  std::vector<gep::simd::Level> p{gep::simd::Level::Scalar};
  if (gep::simd::avx2_available() && !gep::simd::forced_scalar_env())
    p.push_back(gep::simd::Level::Avx2);
  if (gep::simd::avx512_available() && !gep::simd::forced_scalar_env())
    p.push_back(gep::simd::Level::Avx512);
  return p;
}

// The measured ceiling a row is rated against (bench_common.hpp): the
// FMA peak for the (+, x) kernels, the add+min peak for min-plus and
// max-min; or-and on bytes has none measured (nullopt, pct_peak 0).
struct KernelCase {
  std::string name;
  double flops;        // per invocation, for the gflops column
  double updates;      // m^3 update count, 0 when GF/s is the native unit
  std::function<void()> run;
  std::optional<gep::bench::Burst> peak = gep::bench::Burst::Fma;
};

// Adds one steady-state run row (seconds = best per-call time).
void add_run(gep::bench::BenchReport& report, double peak,
             const std::string& label, index_t n, double flops, double dt) {
  gep::bench::BenchRun r;
  r.label = label;
  r.n = n;
  r.seconds = dt;
  r.gflops = flops / dt / 1e9;
  r.pct_peak = peak > 0 ? 100.0 * r.gflops / peak : 0.0;
  report.add(std::move(r));
  std::printf("  %-28s %10.3e s  %7.2f GF/s\n", label.c_str(), dt, flops / dt / 1e9);
}

// Benchmarks one case on every measurable path, each row rated against
// its level's peak, annotating the vector runs with their speedup over
// the scalar run.
void bench_case(gep::bench::BenchReport& report, const KernelCase& c,
                index_t n) {
  double scalar_dt = 0;
  for (gep::simd::Level level : measurable_paths()) {
    gep::simd::force_level(level);
    const double dt = time_per_call(c.run);
    add_run(report, c.peak ? gep::bench::peak_gflops(level, *c.peak) : 0.0,
            c.name + " " + path_name(level), n, c.flops, dt);
    if (c.updates > 0)
      report.annotate("gupdates_per_s", c.updates / dt / 1e9);
    if (level == gep::simd::Level::Scalar) {
      scalar_dt = dt;
    } else if (scalar_dt > 0) {
      report.annotate("speedup_vs_scalar", scalar_dt / dt);
    }
  }
  gep::simd::clear_forced_level();
}

#if GEP_SIMD_X86
// Bare micro-kernel of semiring SR at a vector level: one register tile
// per call, kc = 64 (the typed leaves' k-extent) with both packed panels
// and the C tile in L1, rated against the level's `kind` peak, which is
// timed alternately with the kernel so host drift hits both alike.
template <template <class> class SR>
void bare_ukr_row(gep::bench::BenchReport& report, gep::simd::Level level,
                  const std::string& semiring, gep::bench::Burst kind) {
  using namespace gep;
  simd::force_level(level);
  simd::with_ukr<SR, double>([&](auto tile, simd::UkrFn<double> ukr) {
    constexpr index_t MR = decltype(tile)::MR;
    constexpr index_t NR = decltype(tile)::NR;
    constexpr index_t kc = 64;
    const auto pa = random_buf(MR * kc, 70), pb = random_buf(NR * kc, 71);
    std::vector<double> c(static_cast<std::size_t>(MR * NR), 0.0);
    double t_ukr = 1e300, peak = 0;
    for (int r = 0; r < 3; ++r) {
      t_ukr = std::min(t_ukr, time_per_call([&] {
                         ukr(kc, 1.0, pa.data(), pb.data(), c.data(), NR, MR,
                             NR);
                       }));
      peak = std::max(peak, bench::burst_gflops(level, kind));
    }
    const double flops = 2.0 * MR * NR * kc;
    add_run(report, peak,
            "ukr " + semiring + std::to_string(MR) + "x" +
                std::to_string(NR) + " kc=64 " + path_name(level),
            kc, flops, t_ukr);
    report.annotate(kind == bench::Burst::Fma ? "fma_peak_gflops"
                                              : "addmin_peak_gflops",
                    peak);
    std::printf("  %-28s %7.2f%% of its %.1f GF/s peak\n", "",
                100.0 * flops / t_ukr / 1e9 / peak, peak);
  });
  simd::clear_forced_level();
}
#endif

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }

  using namespace gep;
  double peak = bench::print_host_banner(
      "Kernel microbenchmarks: dispatched vs forced-scalar base cases");
  bench::BenchReport report("kernels", peak);
  report.meta("dispatch", simd::active_name());
  report.meta("cpu_simd", cpu_features().summary());
  report.meta("gemm_min_m", std::to_string(simd::kGemmMinM));

  const bool small = bench::small_run();
  const std::vector<index_t> sizes{32, 64, 128};

  for (index_t m : sizes) {
    auto x = random_buf(m * m, 4), u = random_buf(m * m, 5),
         v = random_buf(m * m, 6), w = random_buf(m * m, 10);
    const double mmf = 2.0 * m * m * m;
    const double upd = static_cast<double>(m) * m * m;

    bench_case(report,
               {"kernel_mm m=" + std::to_string(m), mmf, 0,
                [&] { kernel_mm(x.data(), u.data(), v.data(), m, m, m, m); }},
               m);
    bench_case(report,
               {"kernel_ge_D m=" + std::to_string(m), mmf, 0,
                [&] {
                  kernel_ge(x.data(), u.data(), v.data(), w.data(), m, m, m,
                            m, m, false, false);
                }},
               m);
    bench_case(report,
               {"kernel_lu_D m=" + std::to_string(m), mmf, 0,
                [&] {
                  kernel_lu(x.data(), u.data(), v.data(), w.data(), m, m, m,
                            m, m, false, false);
                }},
               m);
    // The semiring rows run D-kind boxes (x, u, v distinct), which take
    // the packed micro-kernel of their semiring at the vector levels.
    bench_case(report,
               {"kernel_fw m=" + std::to_string(m), mmf, upd,
                [&] { kernel_fw(x.data(), u.data(), v.data(), m, m, m, m); },
                bench::Burst::AddMin},
               m);
    bench_case(report,
               {"kernel_bottleneck m=" + std::to_string(m), mmf, upd,
                [&] {
                  kernel_bottleneck(x.data(), u.data(), v.data(), m, m, m, m);
                },
                bench::Burst::AddMin},
               m);

    // A-kind LU (the aliased diagonal box): restore the tile before
    // every run so pivots stay healthy; restore cost is subtracted.
    {
      auto pristine = random_buf(m * m, 30);
      for (index_t i = 0; i < m; ++i)
        pristine[static_cast<std::size_t>(i * m + i)] += 4.0;
      auto tile = pristine;
      const std::size_t bytes = tile.size() * sizeof(double);
      auto restore = [&] { std::memcpy(tile.data(), pristine.data(), bytes); };
      double scalar_dt = 0;
      for (simd::Level level : measurable_paths()) {
        simd::force_level(level);
        const double dt_both = time_per_call([&] {
          restore();
          kernel_lu(tile.data(), tile.data(), tile.data(), tile.data(), m, m,
                    m, m, m, true, true);
        });
        const double dt_restore = time_per_call(restore);
        const double dt = std::max(dt_both - dt_restore, 1e-12);
        add_run(report, bench::peak_gflops(level),
                "kernel_lu_A m=" + std::to_string(m) + " " + path_name(level),
                m, bench::flops_lu(m), dt);
        if (level == simd::Level::Scalar) {
          scalar_dt = dt;
        } else if (scalar_dt > 0) {
          report.annotate("speedup_vs_scalar", scalar_dt / dt);
        }
      }
      simd::clear_forced_level();
    }

    // Transitive closure on bytes (the or-and micro-kernel).
    {
      SplitMix64 g(40);
      std::vector<std::uint8_t> bx(static_cast<std::size_t>(m * m)),
          bu(static_cast<std::size_t>(m * m)),
          bv(static_cast<std::size_t>(m * m));
      for (auto& b : bu) b = g.chance(0.3);
      for (auto& b : bv) b = g.chance(0.3);
      bench_case(report,
                 {"kernel_tc m=" + std::to_string(m), upd, upd,
                  [&] {
                    kernel_tc(bx.data(), bu.data(), bv.data(), m, m, m, m);
                  },
                  std::nullopt},
                 m);
    }
  }

#if GEP_SIMD_X86
  // Bare micro-kernels per vector level: (+, x) against the level's FMA
  // peak, min-plus against its add+min peak. The scalar
  // level gets no row: its template autovectorizes at whatever width the
  // build allows, so it has no register tile of its own.
  for (simd::Level level : measurable_paths()) {
    if (level == simd::Level::Scalar) continue;
    bare_ukr_row<simd::PlusTimes>(report, level, "", bench::Burst::Fma);
    bare_ukr_row<simd::MinPlus>(report, level, "minplus ",
                                bench::Burst::AddMin);
  }
#endif

  // Cache-aware blocked GEMM through the shared micro-kernel layer.
  {
    const index_t n = 256;
    auto a = random_buf(n * n, 11), b = random_buf(n * n, 12),
         c = random_buf(n * n, 13);
    bench_case(report,
               {"dgemm n=" + std::to_string(n), 2.0 * n * n * n, 0,
                [&] {
                  blas::dgemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                              c.data(), n);
                }},
               n);
  }

  // End-to-end: typed I-GEP LU, both paths, one shot each.
  {
    const index_t n = small ? 512 : 2048;
    const index_t base = 64;
    Matrix<double> init = bench::random_dd_matrix(n, 50);
    double scalar_dt = 0;
    for (simd::Level level : measurable_paths()) {
      simd::force_level(level);
      Matrix<double> m = init;
      RowMajorStore<double> st{m.data(), n, base};
      const double dt = report.timed(
          "igep_lu_typed n=" + std::to_string(n) + " " + path_name(level), n,
          bench::flops_lu(n),
          [&] { igep_lu(nullptr, st, n, {base, Runtime::ForkJoin}); });
      std::printf("  igep_lu_typed n=%lld %s: %.3f s  %.2f GF/s\n",
                  static_cast<long long>(n), path_name(level), dt,
                  bench::flops_lu(n) / dt / 1e9);
      if (level == simd::Level::Scalar) {
        scalar_dt = dt;
      } else if (scalar_dt > 0) {
        report.annotate("speedup_vs_scalar", scalar_dt / dt);
      }
      volatile double sink = m(n - 1, n - 1);
      (void)sink;
    }
    simd::clear_forced_level();
  }

  report.meta("paths_measured",
              std::to_string(measurable_paths().size()));
  const bool ok = report.write();
  return ok ? 0 : 1;
}
