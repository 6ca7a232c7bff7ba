// End-to-end solve benchmark: one workload per process (run.sh starts
// them; README.md documents the protocol and the metrics).
//
//   gep_e2e --workload W [--seed S] [--seconds T] [--trace [0|1]]
//           [--self-test] [--out DIR] [--spec BENCHMARK.json] [--git-sha X]
//   gep_e2e --compare A.json[,A2.json...] B.json[,B2.json...]
//   gep_e2e --list
//
// A run sets up kSetups times, makes its first solve and then the
// references, warms up for kWarmupSeconds, then solves in a closed loop
// for BENCHMARK.json's run_seconds (--seconds may only repeat that value),
// checking every output untimed right after its solve and setting up
// again every kSetupEverySeconds (setup_s is the median of all setups).
// With --trace every second solve is the traced rebuild, so the untraced
// half gives the reference the tracing overhead is measured against. The
// last stdout line is the result object named in BENCHMARK.json: the
// end_to_end metrics, or the per_layer ones with --trace.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ledger.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "simd/dispatch.hpp"
#include "util/cpuinfo.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace {

using namespace gep;
using namespace gep::e2e;

constexpr int kSetups = 3;  // before the first solve
constexpr double kSetupEverySeconds = 1.0;  // then during the timed loop
constexpr double kWarmupSeconds = 3.0;
constexpr double kMinCoverage = 0.95;
// --compare gives a verdict only with this many runs a side: the spread
// it resolves against is the spread between runs.
constexpr std::size_t kMinRuns = 3;
// setup_s counts as worse only past max(bound, this many seconds).
constexpr double kSetupFloorS = 0.010;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // if given, must equal BENCHMARK.json's run_seconds
  bool trace = false;
  bool self_test = false;
  bool list = false;
  std::string out = ".";
  std::string spec = "BENCHMARK.json";
  std::string git_sha = "unknown";
  std::vector<std::string> compare;
};

struct MetricSpec {
  std::string name, unit;
  bool higher_better = false;
  double bound = 0;
};

struct Spec {
  double run_seconds = 0;
  std::vector<MetricSpec> end_to_end, per_layer;
};

bool read_json(const std::string& path, obs::JsonValue* out) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string err;
  if (in && obs::JsonValue::parse(text.str(), out, &err)) return true;
  std::fprintf(stderr, "gep_e2e: cannot read %s %s\n", path.c_str(),
               err.c_str());
  return false;
}

bool load_spec(const std::string& path, Spec* spec) {
  obs::JsonValue v;
  if (!read_json(path, &v)) return false;
  spec->run_seconds = v["run_seconds"].as_double();
  auto metrics = [](const obs::JsonValue& list) {
    std::vector<MetricSpec> out;
    for (const obs::JsonValue& m : list.items())
      out.push_back({m["name"].as_string(), m["unit"].as_string(),
                     m["better"].as_string() == "higher",
                     m["bound"].as_double()});
    return out;
  };
  spec->end_to_end = metrics(v["end_to_end"]);
  spec->per_layer = metrics(v["per_layer"]);
  return true;
}

// --- statistics ------------------------------------------------------------

// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// (Q3 - Q1) / median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (its default 'exclusive' method).
double quartile_spread(std::vector<double> v) {
  const std::size_t m = v.size();
  if (m < 2) return 0;
  std::sort(v.begin(), v.end());
  auto q = [&](std::size_t i) {
    std::size_t j = std::clamp<std::size_t>(i * (m + 1) / 4, 1, m - 1);
    const double delta = static_cast<double>(i * (m + 1)) - 4.0 * j;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  const double med = bench::median_of(v);
  return med != 0 ? (q(3) - q(1)) / std::fabs(med) : 0;
}

// --- one workload run ------------------------------------------------------

using Metrics = std::map<std::string, double>;

// The per-layer metrics of one traced solve.
Metrics layer_metrics(const SolveLedger& sl, const Counts& counts) {
  auto layer = [&](const char* name) {
    auto it = sl.layers.find(name);
    return it != sl.layers.end() ? it->second : LayerTotals{};
  };
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it != counts.end() ? it->second : 0.0;
  };
  Metrics m;
  m["trace.solve_s"] = sl.solve_s;
  m["trace.coverage"] = sl.solve_s > 0 ? sl.covered / sl.solve_s : 0;
  m["layout.convert_s"] = layer("layout.convert").total;
  m["parallel.pool_s"] = layer("parallel.pool").total;
  m["parallel.graph_build_s"] = layer("parallel.graph_build").total;
  const double run_s = layer("parallel.run").total;
  m["parallel.run_s"] = run_s;
  const double worker_s = count("parallel.workers") * run_s;
  for (const char* name : {"parallel.tasks", "parallel.edges",
                           "parallel.work_over_span", "extmem.page_ins",
                           "extmem.page_outs", "extmem.hit_rate",
                           "extmem.prefetch_issued", "extmem.prefetch_hit_rate",
                           "extmem.io_ratio"})
    m[name] = count(name);
  double leaf_s = 0;
  for (const char* kind : {"A", "B", "C", "D"}) {
    const LayerTotals lt = layer((std::string("simd.leaf.") + kind).c_str());
    leaf_s += lt.total;
    m[std::string("simd.leaf_s.") + kind] = lt.total;
    m[std::string("simd.leaf_calls.") + kind] = lt.calls;
    m[std::string("simd.leaf_gflops.") + kind] =
        lt.total > 0 ? count((std::string("flops.") + kind).c_str()) /
                           lt.total / 1e9
                     : 0;
  }
  m["parallel.busy_frac"] = worker_s > 0 ? leaf_s / worker_s : 0;
  m["extmem.pin_frac"] =
      worker_s > 0 ? layer("extmem.pin").total / worker_s : 0;
  m["extmem.io_wait_fg_frac"] =
      worker_s > 0 ? count("extmem.io_wait_fg_s") / worker_s : 0;
  return m;
}

struct Run {
  std::vector<double> setup_s, solve_s;
  int warmup_solves = 0;
  double first_solve_s = 0;
  int attempted = 0, failed = 0, traced = 0;
  std::string error;
  std::vector<Metrics> layers;  // per traced solve
  std::map<std::string, std::vector<LayerTotals>> ledger_rows;
  std::vector<Span> first_trace;
};

Run run_protocol(Workload& w, const Args& a) {
  Run r;
  auto setup = [&] {
    WallTimer t;
    w.setup(a.seed);
    r.setup_s.push_back(t.seconds());
  };
  for (int i = 0; i < kSetups; ++i) setup();
  // The process's first solve comes before the references, some of which
  // solve too, so that lazy initialization and cold vCPUs show in it.
  w.prepare(nullptr);
  {
    WallTimer s;
    w.solve();
    r.first_solve_s = s.seconds();
  }
  w.reference();
  // Time-based and immediately before timing: on the shared KVM guests
  // this was measured on, idle vCPUs run multi-threaded work several
  // times slower until they have had about a second of load (README.md).
  for (WallTimer t; t.seconds() < kWarmupSeconds; ++r.warmup_solves) {
    w.prepare(nullptr);
    w.solve();
  }
  Ledger ledger;
  WallTimer phase, since_setup;
  // With --trace, at least one traced solve however short the run is.
  for (int i = 0; phase.seconds() < a.seconds || (a.trace && i < 2); ++i) {
    // The setups go on between solves, so that setup_s is the median over
    // the whole run: the host's speed drifts over seconds (README.md).
    if (since_setup.seconds() >= kSetupEverySeconds) {
      setup();
      since_setup.reset();
    }
    const bool traced = a.trace && i % 2 == 1;
    const bool perturb = a.self_test && i == 0;
    bool ok = false;
    ++r.attempted;
    try {
      if (traced) {
        ledger.set_solve(i);
        w.prepare(&ledger);
        Counts counts;
        w.solve_traced(ledger, counts);
        std::vector<Span> spans = ledger.take();
        ok = w.check(perturb);
        const SolveLedger sl = analyze(spans);
        r.layers.push_back(layer_metrics(sl, counts));
        for (const auto& [name, lt] : sl.layers)
          r.ledger_rows[name].push_back(lt);
        if (r.traced++ == 0) r.first_trace = std::move(spans);
      } else {
        w.prepare(nullptr);
        WallTimer t;
        w.solve();
        r.solve_s.push_back(t.seconds());
        ok = w.check(perturb);
      }
    } catch (const std::exception& e) {
      if (r.error.empty()) r.error = e.what();
    }
    if (!ok) ++r.failed;
  }
  return r;
}

// End-to-end metrics of a run's solve times. The tail is p80: the slowest
// workload completes about 70 timed solves per run, and p80 still leaves
// ten or more beyond it. It is reported but not in BENCHMARK.json, which
// bounds only what stays steady from run to run (README.md).
Metrics solve_metrics(const std::vector<double>& solve_s, double flops) {
  const double p50 = percentile(solve_s, 0.5);
  return {{"solve_s.p50", p50},
          {"solve_s.p80", percentile(solve_s, 0.8)},
          {"gflops", p50 > 0 ? flops / p50 / 1e9 : 0}};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Units come from BENCHMARK.json; the two reported metrics it does not
// list are solve_s.p80 and fail_frac.
std::string unit_of(const Spec& spec, const std::string& name) {
  for (const auto* list : {&spec.end_to_end, &spec.per_layer})
    for (const MetricSpec& m : *list)
      if (m.name == name) return m.unit;
  return name == "solve_s.p80" ? "s" : "frac";
}

void write_host(obs::JsonWriter& w, const Workload& wl, const Args& a) {
  const CpuInfo cpu = query_cpu_info();
  w.key("host");
  w.begin_object();
  w.kv("nproc", cpu.logical_cpus);
  w.kv("dag_workers", dag_workers(wl.threads()));
  w.kv("cpu", cpu.model_name);
  w.key("caches");
  w.begin_array();
  for (const CacheLevel& c : cpu.caches) {
    w.begin_object();
    w.kv("level", c.level);
    w.kv("type", c.type);
    w.kv("size_bytes", static_cast<std::uint64_t>(c.size_bytes));
    w.end_object();
  }
  w.end_array();
  w.kv("dispatch", simd::active_name());
  w.kv("git_sha", a.git_sha);
  w.end_object();
}

void write_metrics(obs::JsonWriter& w, const Spec& spec, const Metrics& m) {
  w.begin_object();
  for (const auto& [name, value] : m) {
    w.key(name);
    w.begin_object();
    w.kv("value", value);
    w.kv("unit", unit_of(spec, name));
    w.end_object();
  }
  w.end_object();
}

void write_samples(obs::JsonWriter& w, const char* key,
                   const std::vector<double>& v) {
  w.key(key);
  w.begin_array();
  for (double x : v) w.value(x);
  w.end_array();
}

// The result file: everything the run measured, with its host context.
void write_result(const std::string& path, const Workload& wl, const Args& a,
                  const Spec& spec, const Run& r, const Metrics& e2e,
                  const Metrics& layers) {
  std::ofstream os(path);
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("workload", wl.name());
  w.kv("seed", a.seed);
  w.kv("trace", a.trace);
  w.kv("self_test", a.self_test);
  write_host(w, wl, a);
  w.key("protocol");
  w.begin_object();
  w.kv("setups", kSetups);
  w.kv("setup_every_s", kSetupEverySeconds);
  w.kv("warmup_s", kWarmupSeconds);
  w.kv("warmup_solves", r.warmup_solves);
  w.kv("seconds", a.seconds);
  w.kv("timed_solves", static_cast<int>(r.solve_s.size()));
  w.kv("traced_solves", r.traced);
  w.end_object();
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("error", r.error);
  w.key("metrics");
  write_metrics(w, spec, e2e);
  if (a.trace) {
    w.key("per_layer");
    write_metrics(w, spec, layers);
  }
  w.key("samples");
  w.begin_object();
  write_samples(w, "setup_s", r.setup_s);
  write_samples(w, "solve_s", r.solve_s);
  w.end_object();
  w.end_object();
  os << '\n';
}

// Per layer, per traced solve (medians): spans, summed and self time,
// and the share of the solve span. Spans on parallel workers overlap, so
// their shares can add past 100%.
void print_ledger(const Run& r, double solve_s) {
  std::printf("\n%-22s %8s %12s %12s %8s\n", "layer (per solve)", "calls",
              "total s", "self s", "share");
  auto row = [&](const std::string& name) {
    std::vector<double> calls, total, self;
    for (const LayerTotals& lt : r.ledger_rows.at(name)) {
      calls.push_back(lt.calls);
      total.push_back(lt.total);
      self.push_back(lt.self);
    }
    const double t = bench::median_of(total);
    std::printf("%-22s %8.0f %12.6f %12.6f %7.1f%%\n", name.c_str(),
                bench::median_of(calls), t, bench::median_of(self),
                solve_s > 0 ? 100 * t / solve_s : 0);
  };
  if (r.ledger_rows.count("solve") != 0) row("solve");
  for (const auto& entry : r.ledger_rows)
    if (entry.first != "solve") row(entry.first);
}

int run_workload(const Args& a, const Spec& spec) {
  std::unique_ptr<Workload> wl;
  for (auto& w : make_workloads())
    if (w->name() == a.workload) wl = std::move(w);
  if (wl == nullptr) {
    std::fprintf(stderr, "gep_e2e: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Run r = run_protocol(*wl, a);
  Metrics e2e = solve_metrics(r.solve_s, wl->flops());
  e2e["setup_s"] = bench::median_of(r.setup_s);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["fail_frac"] = static_cast<double>(r.failed) / r.attempted;
  Metrics layers = layer_metrics(SolveLedger{}, Counts{});
  if (a.trace) {
    std::map<std::string, std::vector<double>> per_solve;
    for (const Metrics& m : r.layers)
      for (const auto& [name, v] : m) per_solve[name].push_back(v);
    for (const auto& [name, v] : per_solve) layers[name] = bench::median_of(v);
    layers["trace.overhead_frac"] =
        layers["trace.solve_s"] / e2e["solve_s.p50"] - 1;
    layers["warmup.first_solve_s"] = r.first_solve_s;
  }

  std::printf("== %s  seed %llu  %d DAG worker(s) of %u CPUs  %s ==\n",
              wl->name().c_str(), static_cast<unsigned long long>(a.seed),
              dag_workers(wl->threads()), std::thread::hardware_concurrency(),
              simd::active_name());
  std::printf("setup %d x, first solve, warm-up %.0f s (%d solves), timed "
              "%.0f s: %zu solves, %zu more setups%s\n",
              kSetups, kWarmupSeconds, r.warmup_solves, a.seconds,
              r.solve_s.size(), r.setup_s.size() - kSetups,
              a.trace ? (" + " + std::to_string(r.traced) + " traced").c_str()
                      : "");
  std::printf("%-14s %14s %s\n", "metric", "value", "unit");
  for (const auto& [name, v] : e2e)
    std::printf("%-14s %14.6g %s\n", name.c_str(), v,
                unit_of(spec, name).c_str());
  if (!r.error.empty()) std::printf("error: %s\n", r.error.c_str());

  const std::string stem = a.out + "/" + wl->name();
  if (a.trace) {
    print_ledger(r, layers["trace.solve_s"]);
    std::printf("\n");
    for (const MetricSpec& m : spec.per_layer)
      std::printf("%-28s %14.6g %s\n", m.name.c_str(), layers[m.name],
                  m.unit.c_str());
    if (layers["trace.coverage"] < kMinCoverage) {
      const double gap =
          layers["trace.solve_s"] * (1 - layers["trace.coverage"]);
      std::printf("warning: trace.coverage %.3f: %.6f s per solve lies "
                  "outside the layout.convert / parallel.* spans\n",
                  layers["trace.coverage"], gap);
    }
    if (write_chrome_trace(stem + ".trace.json", r.first_trace))
      std::printf("trace: %s.trace.json\n", stem.c_str());
  }
  write_result(stem + ".json", *wl, a, spec, r, e2e, layers);
  std::printf("result: %s.json\n", stem.c_str());

  // The last line: the metrics BENCHMARK.json names, in its order.
  const std::vector<MetricSpec>& names =
      a.trace ? spec.per_layer : spec.end_to_end;
  const Metrics& values = a.trace ? layers : e2e;
  std::ostringstream line;
  obs::JsonWriter w(line);
  w.begin_object();
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics");
  w.begin_object();
  for (const MetricSpec& m : names) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      std::fprintf(stderr, "gep_e2e: BENCHMARK.json names '%s', which the "
                   "benchmark does not measure\n", m.name.c_str());
      return 2;
    }
    w.key(m.name);
    w.begin_object();
    w.kv("value", it->second);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return r.failed == 0 ? 0 : 1;
}

// --- --compare -------------------------------------------------------------

// One side of --compare: per workload, its result in each listed file.
// A file is what run.sh wrote: {"workloads": [...]} for a full run, or a
// single workload's result.
using Runs = std::map<std::string, std::vector<obs::JsonValue>>;

bool load_runs(const std::string& paths, Runs* runs) {
  std::stringstream list(paths);
  for (std::string path; std::getline(list, path, ',');) {
    obs::JsonValue v;
    if (!read_json(path, &v)) return false;
    if (v.has("workload")) (*runs)[v["workload"].as_string()].push_back(v);
    for (const obs::JsonValue& r : v["workloads"].items())
      (*runs)[r["workload"].as_string()].push_back(r);
  }
  return true;
}

// What must match for two results to be compared: the run length, the
// setup and warm-up protocol, and the mode.
std::string protocol_of(const obs::JsonValue& r) {
  const obs::JsonValue& p = r["protocol"];
  std::ostringstream s;
  s << "seconds " << p["seconds"].as_double() << ", setups "
    << p["setups"].as_int() << " + one every "
    << p["setup_every_s"].as_double() << " s, warm-up "
    << p["warmup_s"].as_double()
    << " s, trace " << r["trace"].as_bool() << ", self-test "
    << r["self_test"].as_bool();
  return s.str();
}

// A side's value of one metric, the median over its runs, and its
// run-to-run spread, the quartile spread over the runs.
std::pair<double, double> side_metric(const std::vector<obs::JsonValue>& runs,
                                      const std::string& name) {
  std::vector<double> v;
  for (const obs::JsonValue& r : runs)
    v.push_back(r["metrics"][name]["value"].as_double());
  return {bench::median_of(v), quartile_spread(v)};
}

// One row per workload; per end-to-end metric: ok, worse (B worse than
// A by more than the metric's bound) or unresolved (a side has fewer than
// kMinRuns runs, or either side's spread is wider than the bound). The
// bound of setup_s is at least kSetupFloorS. Exit 1 when anything is
// worse, 2 when the two sides ran different protocols.
int compare(const Spec& spec, const std::string& a_paths,
            const std::string& b_paths) {
  Runs a, b;
  if (!load_runs(a_paths, &a) || !load_runs(b_paths, &b)) return 2;
  std::string protocol;
  for (const Runs* side : {&a, &b})
    for (const auto& [name, runs] : *side)
      for (const obs::JsonValue& r : runs) {
        if (protocol.empty()) protocol = protocol_of(r);
        if (protocol_of(r) == protocol) continue;
        std::fprintf(stderr, "gep_e2e: cannot compare runs of different "
                     "protocols: %s vs %s\n", protocol.c_str(),
                     protocol_of(r).c_str());
        return 2;
      }
  std::printf("A: %s\nB: %s\n%-18s", a_paths.c_str(), b_paths.c_str(),
              "workload");
  for (const MetricSpec& m : spec.end_to_end)
    std::printf(" %-22s", m.name.c_str());
  std::printf("\n");
  int worse = 0;
  for (const auto& [name, runs_a] : a) {
    std::printf("%-18s", name.c_str());
    auto it = b.find(name);
    for (const MetricSpec& m : spec.end_to_end) {
      if (it == b.end()) {
        std::printf(" %-22s", "missing in B");
        continue;
      }
      const auto [va, spread_a] = side_metric(runs_a, m.name);
      const auto [vb, spread_b] = side_metric(it->second, m.name);
      const double change =
          va != 0 ? (m.higher_better ? va - vb : vb - va) / va : 0;
      const double bound = m.name == "setup_s" && va > 0
                               ? std::max(m.bound, kSetupFloorS / va)
                               : m.bound;
      const bool resolved = std::min(runs_a.size(), it->second.size()) >=
                                kMinRuns &&
                            std::max(spread_a, spread_b) <= bound;
      const char* verdict = !resolved         ? "unresolved"
                            : change > bound ? "worse"
                                             : "ok";
      worse += std::strcmp(verdict, "worse") == 0;
      char cell[64];
      std::snprintf(cell, sizeof cell, "%s %+.1f%%", verdict, 100 * change);
      std::printf(" %-22s", cell);
    }
    std::printf("\n");
  }
  std::printf("(change: + is worse; bounds and directions from "
              "BENCHMARK.json; a verdict needs %zu runs a side)\n",
              kMinRuns);
  return worse == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--list") {
      a->list = true;
    } else if (arg == "--self-test") {
      a->self_test = true;
    } else if (arg == "--trace") {
      a->trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0))
        a->trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--compare") {
      const char* x = next();
      const char* y = next();
      if (x == nullptr || y == nullptr) return false;
      a->compare = {x, y};
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
      if (!(a->seconds > 0)) return false;
    } else if (arg == "--out") {
      a->out = v;
    } else if (arg == "--spec") {
      a->spec = v;
    } else if (arg == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return a->list || !a->compare.empty() || !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: gep_e2e --workload W [--seed S] [--seconds T] "
                 "[--trace [0|1]] [--self-test] [--out DIR] [--spec FILE] "
                 "[--git-sha X]\n"
                 "       gep_e2e --compare A.json[,...] B.json[,...] "
                 "[--spec FILE]\n"
                 "       gep_e2e --list\n");
    return 2;
  }
  if (a.list) {
    for (const auto& w : make_workloads())
      std::printf("%s\n", w->name().c_str());
    return 0;
  }
  Spec spec;
  if (!load_spec(a.spec, &spec)) return 2;
  if (!a.compare.empty()) return compare(spec, a.compare[0], a.compare[1]);
  // The run length is the benchmark's, the same on every checkout.
  if (!(spec.run_seconds > 0) ||
      (a.seconds > 0 && a.seconds != spec.run_seconds)) {
    std::fprintf(stderr, "gep_e2e: a run lasts run_seconds from %s (%g); "
                 "--seconds may only repeat it\n", a.spec.c_str(),
                 spec.run_seconds);
    return 2;
  }
  a.seconds = spec.run_seconds;
  try {
    return run_workload(a, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gep_e2e: %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
}
