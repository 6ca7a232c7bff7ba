// Shared helpers for the figure-reproduction benches: host banner
// (paper Table 2 equivalent), workload generators, and flop accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix.hpp"
#include "obs/obs.hpp"
#include "simd/dispatch.hpp"
#include "util/cpuinfo.hpp"
#include "util/peak.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#if GEP_SIMD_X86
#include <immintrin.h>
#endif

namespace gep::bench {

// Version of the BENCH_*.json / BENCH_manifest.json schema. Bump when a
// field changes meaning; additive fields don't require a bump.
//   v2: repeats (min/median/MAD), per-run profiles, folded stacks,
//       trace_dropped, dispatch_level, schema_version itself.
inline constexpr int kBenchSchemaVersion = 2;

// --- measured peak ----------------------------------------------------------
//
// Register-only bursts, one per vector level and op mix, with no memory
// operand, so the rate is the ceiling a micro-kernel of that register
// width can reach:
//   - Fma: independent FMA chains, more than FMA latency x ports (12 of
//     the 16 ymm, 24 of the 32 zmm registers);
//   - AddMin: the min-plus k-step acc = min(a + b, acc) over a grid of
//     chains (4 x 2 ymm, 8 x 2 zmm) whose empty asm keeps the compiler
//     from hoisting the loop-invariant sums: the ceiling of a min-plus
//     or max-min kernel. It need not be half the FMA rate, since a core
//     may issue adds and mins on more ports than FMAs.
// Each returns a value derived from every chain so none is dead code.
enum class Burst { Fma, AddMin };

#if GEP_SIMD_X86
inline constexpr long kBurstIters = 4096;
inline constexpr int kYmmFmaChains = 12, kZmmFmaChains = 24;
inline constexpr int kYmmMinRows = 4, kZmmMinRows = 8;

GEP_AVX2_FN inline double fma_burst_avx2() {
  const __m256d a = _mm256_set1_pd(1.0000001), b = _mm256_set1_pd(1e-9);
  __m256d acc[kYmmFmaChains];
#pragma GCC unroll 32
  for (int c = 0; c < kYmmFmaChains; ++c) acc[c] = _mm256_set1_pd(c);
  for (long it = 0; it < kBurstIters; ++it) {
#pragma GCC unroll 32
    for (int c = 0; c < kYmmFmaChains; ++c)
      acc[c] = _mm256_fmadd_pd(acc[c], a, b);
  }
#pragma GCC unroll 32
  for (int c = 1; c < kYmmFmaChains; ++c)
    acc[0] = _mm256_add_pd(acc[0], acc[c]);
  return _mm256_cvtsd_f64(acc[0]);
}

GEP_AVX512_FN inline double fma_burst_avx512() {
  const __m512d a = _mm512_set1_pd(1.0000001), b = _mm512_set1_pd(1e-9);
  __m512d acc[kZmmFmaChains];
#pragma GCC unroll 32
  for (int c = 0; c < kZmmFmaChains; ++c) acc[c] = _mm512_set1_pd(c);
  for (long it = 0; it < kBurstIters; ++it) {
#pragma GCC unroll 32
    for (int c = 0; c < kZmmFmaChains; ++c)
      acc[c] = _mm512_fmadd_pd(acc[c], a, b);
  }
#pragma GCC unroll 32
  for (int c = 1; c < kZmmFmaChains; ++c)
    acc[0] = _mm512_add_pd(acc[0], acc[c]);
  return _mm512_cvtsd_f64(acc[0]);
}

GEP_AVX2_FN inline double addmin_burst_avx2() {
  __m256d a[kYmmMinRows], b0 = _mm256_set1_pd(0.5), b1 = _mm256_set1_pd(2);
  __m256d acc[kYmmMinRows][2];
#pragma GCC unroll 32
  for (int i = 0; i < kYmmMinRows; ++i) {
    a[i] = _mm256_set1_pd(i);
    acc[i][0] = acc[i][1] = _mm256_set1_pd(1e300);
  }
  for (long it = 0; it < kBurstIters; ++it) {
    asm volatile("" : "+v"(b0), "+v"(b1));
#pragma GCC unroll 32
    for (int i = 0; i < kYmmMinRows; ++i) {
      acc[i][0] = _mm256_min_pd(_mm256_add_pd(a[i], b0), acc[i][0]);
      acc[i][1] = _mm256_min_pd(_mm256_add_pd(a[i], b1), acc[i][1]);
    }
  }
#pragma GCC unroll 32
  for (int i = 1; i < kYmmMinRows; ++i)
    acc[0][0] = _mm256_add_pd(acc[0][0], _mm256_add_pd(acc[i][0], acc[i][1]));
  return _mm256_cvtsd_f64(acc[0][0]);
}

GEP_AVX512_FN inline double addmin_burst_avx512() {
  __m512d a[kZmmMinRows], b0 = _mm512_set1_pd(0.5), b1 = _mm512_set1_pd(2);
  __m512d acc[kZmmMinRows][2];
#pragma GCC unroll 32
  for (int i = 0; i < kZmmMinRows; ++i) {
    a[i] = _mm512_set1_pd(i);
    acc[i][0] = acc[i][1] = _mm512_set1_pd(1e300);
  }
  for (long it = 0; it < kBurstIters; ++it) {
    asm volatile("" : "+v"(b0), "+v"(b1));
    // The all-lanes mask form dodges GCC 12's -Wmaybe-uninitialized on
    // _mm512_min_pd (as in the library's AVX-512 trait).
#pragma GCC unroll 32
    for (int i = 0; i < kZmmMinRows; ++i) {
      acc[i][0] = _mm512_mask_min_pd(acc[i][0], 0xFF,
                                     _mm512_add_pd(a[i], b0), acc[i][0]);
      acc[i][1] = _mm512_mask_min_pd(acc[i][1], 0xFF,
                                     _mm512_add_pd(a[i], b1), acc[i][1]);
    }
  }
#pragma GCC unroll 32
  for (int i = 1; i < kZmmMinRows; ++i)
    acc[0][0] = _mm512_add_pd(acc[0][0], _mm512_add_pd(acc[i][0], acc[i][1]));
  return _mm512_cvtsd_f64(acc[0][0]);
}
#endif

// One >= 20 ms batch of burst `kind` at vector level l (which the host
// must run), in GF/s: ymm at Avx2, zmm at Avx512. At Scalar, whose
// templates vectorize as the compiler sees fit, the FMA peak is
// util/peak's portable C burst and there is no add+min peak (0).
inline double burst_gflops(simd::Level l, Burst kind = Burst::Fma) {
#if GEP_SIMD_X86
  if (l != simd::Level::Scalar) {
    const bool zmm = l == simd::Level::Avx512;
    const bool fma = kind == Burst::Fma;
    volatile double sink = 0;
    long bursts = 0;
    WallTimer t;
    do {
      sink = sink + (zmm ? (fma ? fma_burst_avx512() : addmin_burst_avx512())
                         : (fma ? fma_burst_avx2() : addmin_burst_avx2()));
      ++bursts;
    } while (t.seconds() < 0.02);
    const int lanes = zmm ? 8 : 4;
    const int chains = fma ? (zmm ? kZmmFmaChains : kYmmFmaChains)
                           : 2 * (zmm ? kZmmMinRows : kYmmMinRows);
    return 2.0 * lanes * chains * kBurstIters * static_cast<double>(bursts) /
           t.seconds() / 1e9;
  }
#endif
  return kind == Burst::Fma ? measured_peak_gflops() : 0.0;
}

// The measured peak of level l for burst `kind`: the best batch over
// about 0.25 s, cached. The denominator of every "% of peak", so no row
// reads above 100% because of its register width or op mix.
inline double peak_gflops(simd::Level l, Burst kind = Burst::Fma) {
  if (l == simd::Level::Scalar && kind != Burst::Fma) return 0.0;
  static double cached[2][3] = {};
  double& best = cached[static_cast<int>(kind)][static_cast<int>(l)];
  if (best > 0) return best;
  WallTimer total;
  while (total.seconds() < 0.25) best = std::max(best, burst_gflops(l, kind));
  return best;
}

// Prints the machine row (our stand-in for the paper's Table 2) and
// returns the measured FMA peak of the dispatched SIMD level in GFLOP/s,
// used for "% of peak" columns.
// Every bench calls this first, so it doubles as the telemetry hook:
// crash handlers write a flight-recorder dump on fatal signals,
// $GEP_WATCHDOG_MS arms the stall watchdog, and $GEP_STAT_PORT starts
// the embedded HTTP exporter for the whole run (the dispatch level is
// injected here because gep_obs cannot link the SIMD layer itself).
inline double print_host_banner(const char* title) {
  obs::flight::install_crash_handlers();
  obs::Watchdog::start_from_env();
  obs::StatServer::set_build_info(nullptr, simd::active_name());
  obs::StatServer::start_from_env();
  CpuInfo info = query_cpu_info();
  double peak = peak_gflops(simd::active());
  std::printf("== %s ==\n", title);
  std::printf("host: %s\n", info.summary().c_str());
  std::printf("measured peak (double FMA, %s level): %.2f GFLOP/s\n\n",
              simd::active_name(), peak);
  return peak;
}

// Environment-tunable scale factor so the full suite can run quickly
// (GEP_BENCH_SCALE=small) or at paper-like sizes (default).
inline bool small_run() {
  const char* s = std::getenv("GEP_BENCH_SCALE");
  return s != nullptr && std::string(s) == "small";
}

inline Matrix<double> random_dist_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 100.0);
    m(i, i) = 0.0;
  }
  return m;
}

inline Matrix<double> random_dd_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

inline Matrix<double> random_matrix(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
  return m;
}

// --- Machine-readable bench reports ---------------------------------------
//
// Every figure bench emits BENCH_<name>.json next to its human tables:
// host banner, measured peak, per-run wall times and GFLOP/s, hardware
// counters when perf_event_open is permitted, and a full snapshot of the
// metrics registry (work-stealing steals, page-cache hits/misses,
// simulated cachesim misses, typed-engine leaf counts, ...). CI uploads
// these as artifacts; regression tooling diffs them across commits.

struct BenchRun {
  std::string label;
  long long n = 0;
  double seconds = 0.0;  // median of the repeats
  double gflops = 0.0;
  double pct_peak = 0.0;
  obs::HwSample hw;  // valid=false when counters were unavailable
  std::vector<std::pair<std::string, double>> extra;
  // Repeat statistics (fields trail the aggregate-initialized prefix
  // above; single-shot runs keep the defaults).
  int repeats = 1;
  double seconds_min = 0.0;  // fastest repeat
  double seconds_mad = 0.0;  // median absolute deviation of the repeats
  std::string profile_json;  // per-run tracer profile (empty: not traced)
};

// Number of timed repetitions per labeled run ($GEP_BENCH_REPEATS,
// default 1 = the historical single-shot behavior). With k > 1, timed()
// additionally executes one untimed warmup pass and reports the median
// with min/MAD noise bounds.
inline int bench_repeats() {
  const char* s = std::getenv("GEP_BENCH_REPEATS");
  if (s == nullptr) return 1;
  const long k = std::strtol(s, nullptr, 10);
  return k < 1 ? 1 : k > 99 ? 99 : static_cast<int>(k);
}

// Testing-only fault line for the regression gate
// ($GEP_BENCH_HANDICAP="<label-substring>:<factor>"): multiplies the
// recorded wall time of matching runs so CI can prove gep_bench_diff
// flags a real slowdown without actually burning the cycles.
inline double handicap_factor(const std::string& label) {
  const char* s = std::getenv("GEP_BENCH_HANDICAP");
  if (s == nullptr) return 1.0;
  const std::string spec(s);
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return 1.0;
  if (label.find(spec.substr(0, colon)) == std::string::npos) return 1.0;
  const double f = std::atof(spec.c_str() + colon + 1);
  return f > 0 ? f : 1.0;
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Median absolute deviation — the robust noise scale the diff gate's
// thresholds are expressed in.
inline double mad_of(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double med = median_of(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(std::fabs(x - med));
  return median_of(std::move(dev));
}

class BenchReport {
 public:
  // `name` is the figure tag ("fig10_ge"); output file BENCH_<name>.json.
  // Starts the recursion tracer when $GEP_OBS_TRACE is set (the trace is
  // written by write()) and the leaf sampler when
  // $GEP_OBS_PROFILE_SAMPLE is set.
  BenchReport(std::string name, double peak_gflops)
      : name_(std::move(name)), peak_(peak_gflops) {
    if (obs::Tracer::env_path() != nullptr) obs::Tracer::start();
    obs::LeafSampler::enable_from_env();
  }

  void add(BenchRun r) { runs_.push_back(std::move(r)); }

  // Top-level string key/value pairs (e.g. the selected SIMD dispatch
  // path), emitted once per report rather than per run.
  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }

  // Convenience: time + record in one step. Returns the recorded
  // (median) seconds. Runs $GEP_BENCH_REPEATS timed repetitions after
  // one untimed warmup (single-shot, no warmup, when unset). When
  // tracing is on, the tracer is cleared at the start of each labeled
  // run so per-run profiles don't bleed into each other; the profile of
  // this run's spans is attached to the BenchRun.
  template <class Fn>
  double timed(const std::string& label, long long n, double flops, Fn&& fn) {
    const int reps = bench_repeats();
    if (reps > 1) fn();  // warmup, untimed
    const bool tracing = obs::Tracer::env_path() != nullptr;
    if (tracing) {
      obs::Tracer::clear();  // drop warmup + earlier runs' spans
      obs::Tracer::start();
      obs::LeafSampler::reset();
    }
    std::vector<double> times(static_cast<std::size_t>(reps));
    std::vector<obs::HwSample> samples(static_cast<std::size_t>(reps));
    obs::HwCounters hw;
    for (int rep = 0; rep < reps; ++rep) {
      // The hardware counters bracket exactly the timed region —
      // stop() reads them before any report bookkeeping happens.
      hw.start();
      WallTimer t;
      fn();
      const double dt = t.seconds();
      samples[static_cast<std::size_t>(rep)] = hw.stop();
      times[static_cast<std::size_t>(rep)] = dt;
    }
    const double factor = handicap_factor(label);
    for (double& t : times) t *= factor;
    const double med = median_of(times);
    std::size_t med_idx = 0;
    for (std::size_t i = 1; i < times.size(); ++i)
      if (std::fabs(times[i] - med) < std::fabs(times[med_idx] - med))
        med_idx = i;
    BenchRun r;
    r.label = label;
    r.n = n;
    r.seconds = med;
    r.gflops = flops / med / 1e9;
    r.pct_peak = peak_ > 0 ? 100.0 * r.gflops / peak_ : 0.0;
    r.repeats = reps;
    r.seconds_min = *std::min_element(times.begin(), times.end());
    r.seconds_mad = mad_of(times);
    r.hw = samples[med_idx];
    if (tracing) {
      obs::Tracer::stop();
      obs::Profile prof = obs::Profile::collect();
      if (!prof.empty()) {
        r.profile_json = prof.json();
        folded_ += prof.folded(name_ + ";" + label);
      }
      obs::Tracer::start();  // keep later (untimed) spans in the trace
    }
    add(std::move(r));
    return med;
  }

  // Attaches {key, value} to the most recently added run.
  void annotate(const std::string& key, double v) {
    if (!runs_.empty()) runs_.back().extra.emplace_back(key, v);
  }

  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) return false;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("bench", name_);
    w.kv("schema_version", kBenchSchemaVersion);
    w.kv("unix_time", static_cast<std::int64_t>(std::time(nullptr)));
    w.kv("gep_obs", obs::kEnabled);
    w.kv("peak_gflops", peak_);
    w.kv("dispatch_level", simd::active_name());
    w.kv("bench_repeats", bench_repeats());
    for (const auto& [k, v] : meta_) w.kv(k, v);
    CpuInfo info = query_cpu_info();
    w.key("host");
    w.begin_object();
    w.kv("model", info.model_name);
    w.kv("logical_cpus", info.logical_cpus);
    w.key("caches");
    w.begin_array();
    for (const CacheLevel& c : info.caches) {
      w.begin_object();
      w.kv("level", c.level);
      w.kv("type", c.type);
      w.kv("size_bytes", static_cast<std::uint64_t>(c.size_bytes));
      w.kv("line_bytes", static_cast<std::uint64_t>(c.line_bytes));
      w.kv("associativity", c.associativity);
      w.end_object();
    }
    w.end_array();
    w.kv("summary", info.summary());
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (const BenchRun& r : runs_) {
      w.begin_object();
      w.kv("label", r.label);
      w.kv("n", static_cast<std::int64_t>(r.n));
      w.kv("seconds", r.seconds);
      w.kv("gflops", r.gflops);
      w.kv("pct_peak", r.pct_peak);
      w.kv("repeats", r.repeats);
      w.kv("seconds_min", r.repeats > 1 ? r.seconds_min : r.seconds);
      w.kv("seconds_mad", r.seconds_mad);
      if (!r.profile_json.empty()) {
        w.key("profile");
        w.raw(r.profile_json);
      }
      w.key("hw");
      if (r.hw.valid) {
        w.begin_object();
        if (r.hw.has_cycles) w.kv("cycles", r.hw.cycles);
        if (r.hw.has_instructions) w.kv("instructions", r.hw.instructions);
        if (r.hw.has_l1d) w.kv("l1d_misses", r.hw.l1d_misses);
        if (r.hw.has_llc) w.kv("llc_misses", r.hw.llc_misses);
        if (r.hw.has_cycles && r.hw.has_instructions) w.kv("ipc", r.hw.ipc());
        w.end_object();
      } else {
        w.null();  // perf_event_open unavailable (container/CI)
      }
      for (const auto& [k, v] : r.extra) w.kv(k, v);
      w.end_object();
    }
    w.end_array();
    // Registry snapshot: steals, page-cache traffic, simulated misses,
    // typed-engine counters — whatever the run populated. Empty sections
    // under GEP_OBS=0.
    w.key("metrics");
    w.raw(obs::snapshot_json());
    // Dropped spans silently truncate profiles — surface the count so a
    // nonzero value is visible in every report.
    w.kv("trace_dropped", obs::Tracer::dropped_count());
    if (const char* tp = obs::Tracer::env_path()) {
      obs::Tracer::stop();
      if (obs::Tracer::write_chrome_trace(tp)) {
        w.kv("trace_file", tp);
        w.kv("trace_events", static_cast<std::uint64_t>(
                                 obs::Tracer::event_count()));
        std::printf("trace: %zu span(s) -> %s (open in chrome://tracing)\n",
                    obs::Tracer::event_count(), tp);
      }
    }
    if (!folded_.empty()) {
      const std::string fpath = "BENCH_" + name_ + ".folded";
      std::ofstream fs(fpath);
      fs << folded_;
      if (fs) {
        w.kv("folded_file", fpath);
        std::printf("folded stacks: %s (feed to flamegraph.pl)\n",
                    fpath.c_str());
      }
    }
    w.end_object();
    os << '\n';
    const bool ok = static_cast<bool>(os);
    if (ok) std::printf("report: %s\n", path.c_str());
    return ok;
  }

 private:
  std::string name_;
  double peak_;
  std::vector<BenchRun> runs_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::string folded_;
};

// FLOP counts used for % of peak (2 flops per multiply-add, matching the
// paper's "two double precision floating point operations per cycle").
inline double flops_mm(index_t n) { return 2.0 * n * n * n; }
inline double flops_ge(index_t n) {
  // one multiply + one subtract per update plus a division per (i,k).
  double f = 0;
  for (index_t k = 0; k < n; ++k) {
    double r = static_cast<double>(n - 1 - k);
    f += 2.0 * r * r + r;
  }
  return f;
}
inline double flops_lu(index_t n) {
  double f = 0;
  for (index_t k = 0; k < n; ++k) {
    double r = static_cast<double>(n - 1 - k);
    f += 2.0 * r * r + r;
  }
  return f;
}
inline double flops_fw(index_t n) { return 2.0 * n * n * n; }

}  // namespace gep::bench
