// Statistical regression gate over two bench manifests.
//
//   gep_bench_diff BASELINE.json CURRENT.json [options]
//
// Compares the manifests metric by metric and exits non-zero when a
// regression clears the noise threshold, so CI can gate merges on data
// instead of anecdote. Three metric classes, because not every number
// is comparable across hosts:
//
//   * wall time (per-run median seconds): a run regresses when the
//     slowdown exceeds BOTH `--mads` median-absolute-deviations of the
//     repeat noise AND `--min-rel` relative. Gated only when both
//     manifests come from the same host model (or --strict), since
//     absolute seconds don't transfer between machines. Runs faster
//     than --min-seconds in the baseline are reported but never gated
//     (timer noise dominates).
//   * deterministic work counters (typed.leaf_calls.*, typed.updates.*,
//     typed.mm.*) and the per-run simulated misses (sim_l1_misses,
//     sim_l2_misses: the cache simulator replays fixed simulated
//     addresses): pure functions of the workload, gated on ANY host at
//     a tight --work-tol — drift means the benched workload changed
//     (requiring a baseline regen) or the recursion itself did.
//   * host-dependent counters (extmem.page_cache.*, kernels.dispatch.*,
//     robust.*): gated at --counter-tol, same-host (or --strict) only —
//     prefetch timing and SIMD availability legitimately differ across
//     machines.
//   * io_ratio (measured page transfers / Θ(n³/(B√M)) prediction, from
//     the OOC benches): gated on ANY host at the loose --io-tol — page
//     counts are deterministic for a fixed (n, M, B), so a large drift
//     means the engine's transfer behavior changed. Loose because the
//     parallel/prefetch legs jitter with scheduling.
//
// Everything else (gflops mirrors seconds; hw samples are absent on CI)
// is informational. Missing benches/labels/counters on either side are
// listed but never fail the gate, so the bench suite can evolve; the
// printed note says when the baseline needs regenerating.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_read.hpp"
#include "util/table.hpp"

namespace {

using gep::obs::JsonValue;

struct Options {
  double mads = 6.0;         // seconds threshold in MAD units
  double min_rel = 0.30;     // minimum relative slowdown to flag
  double min_seconds = 0.005;  // baseline medians below this: info only
  double work_tol = 0.005;   // deterministic work counters
  double counter_tol = 0.25;  // host-dependent counters
  double io_tol = 0.5;       // io_ratio (measured/predicted transfers)
  bool strict = false;       // gate host-dependent metrics cross-host
};

struct Verdicts {
  int regressions = 0;
  int improvements = 0;
  int infos = 0;
  int oks = 0;
};

std::string fmt(double v) {
  char buf[32];
  if (v == 0) return "0";
  if (std::fabs(v) >= 1000 && std::fabs(v) < 1e15 &&
      v == std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string pct(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * rel);
  return buf;
}

bool load(const char* path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!JsonValue::parse(ss.str(), out, &err)) {
    std::fprintf(stderr, "%s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

// A manifest carries reports under "benches"; a bare BENCH_*.json is
// treated as a one-bench manifest so the tool works on either.
std::vector<std::pair<std::string, const JsonValue*>> benches_of(
    const JsonValue& v) {
  std::vector<std::pair<std::string, const JsonValue*>> out;
  if (const JsonValue* b = v.find("benches")) {
    for (const auto& [name, rep] : b->members()) out.emplace_back(name, &rep);
  } else if (v.has("bench")) {
    out.emplace_back(v["bench"].as_string(), &v);
  }
  return out;
}

std::string host_model(const JsonValue& v) {
  if (v["host"].is_object()) return v["host"]["model"].as_string();
  // Bare report fallback: host object has the same shape.
  return {};
}

// label|n uniquely keys a run within one bench's sweep.
std::map<std::string, const JsonValue*> runs_by_key(const JsonValue& rep) {
  std::map<std::string, const JsonValue*> out;
  for (const JsonValue& r : rep["runs"].items()) {
    const std::string key =
        r["label"].as_string() + "|n=" + std::to_string(r["n"].as_int());
    out.emplace(key, &r);  // first occurrence wins
  }
  return out;
}

bool counter_is_work(const std::string& name) {
  return name.rfind("typed.leaf_calls.", 0) == 0 ||
         name.rfind("typed.updates.", 0) == 0 ||
         name.rfind("typed.mm.", 0) == 0;
}

bool counter_is_gated(const std::string& name) {
  return name.rfind("extmem.page_cache.", 0) == 0 ||
         name.rfind("kernels.dispatch.", 0) == 0 ||
         name.rfind("robust.", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const char* base_path = nullptr;
  const char* cur_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto num = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::atof(argv[++i]);
      return true;
    };
    if (a == "--mads") {
      if (!num(&opt.mads)) return 2;
    } else if (a == "--min-rel") {
      if (!num(&opt.min_rel)) return 2;
    } else if (a == "--min-seconds") {
      if (!num(&opt.min_seconds)) return 2;
    } else if (a == "--work-tol") {
      if (!num(&opt.work_tol)) return 2;
    } else if (a == "--counter-tol") {
      if (!num(&opt.counter_tol)) return 2;
    } else if (a == "--io-tol") {
      if (!num(&opt.io_tol)) return 2;
    } else if (a == "--strict") {
      opt.strict = true;
    } else if (a == "-h" || a == "--help") {
      std::printf(
          "usage: %s BASELINE.json CURRENT.json [--mads K] [--min-rel R]\n"
          "       [--min-seconds S] [--work-tol R] [--counter-tol R]\n"
          "       [--io-tol R] [--strict]\n",
          argv[0]);
      return 0;
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (cur_path == nullptr) {
      cur_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (base_path == nullptr || cur_path == nullptr) {
    std::fprintf(stderr, "usage: %s BASELINE.json CURRENT.json [options]\n",
                 argv[0]);
    return 2;
  }

  JsonValue base, cur;
  if (!load(base_path, &base) || !load(cur_path, &cur)) return 2;

  const std::string base_host = host_model(base);
  const std::string cur_host = host_model(cur);
  const bool same_host =
      !base_host.empty() && base_host == cur_host;
  const bool gate_hostdep = same_host || opt.strict;

  std::printf("baseline: %s (%s, git %s)\n", base_path,
              base_host.empty() ? "unknown host" : base_host.c_str(),
              base["git_sha"].as_string().empty()
                  ? "?"
                  : base["git_sha"].as_string().c_str());
  std::printf("current:  %s (%s, git %s)\n", cur_path,
              cur_host.empty() ? "unknown host" : cur_host.c_str(),
              cur["git_sha"].as_string().empty()
                  ? "?"
                  : cur["git_sha"].as_string().c_str());
  if (!gate_hostdep)
    std::printf(
        "hosts differ: wall-time and host-dependent counters are "
        "informational (pass --strict to gate them anyway)\n");
  std::printf("\n");

  gep::Table table(
      {"bench", "metric", "baseline", "current", "delta", "bound", "verdict"});
  Verdicts v;
  std::vector<std::string> notes;

  // `bound` names the threshold that actually applied to the row, so a
  // verdict is auditable from the table alone (which matters most when
  // the MAD bound silently degenerates — see the zero-MAD fallback).
  auto verdict_row = [&](const std::string& bench, const std::string& metric,
                         double b, double c, double rel,
                         const std::string& bound, const char* verdict) {
    table.add_row({bench, metric, fmt(b), fmt(c), pct(rel), bound, verdict});
    if (std::strcmp(verdict, "REGRESSION") == 0) ++v.regressions;
    else if (std::strcmp(verdict, "IMPROVED") == 0) ++v.improvements;
    else if (std::strcmp(verdict, "INFO") == 0) ++v.infos;
    else ++v.oks;
  };
  auto tol_bound = [&](double tol) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "±%.3g%%", 100.0 * tol);
    return std::string(buf);
  };

  const auto base_benches = benches_of(base);
  const auto cur_benches = benches_of(cur);
  auto find_bench = [](const std::vector<std::pair<std::string,
                                                   const JsonValue*>>& bs,
                       const std::string& name) -> const JsonValue* {
    for (const auto& [n, rep] : bs)
      if (n == name) return rep;
    return nullptr;
  };

  for (const auto& [name, brep] : base_benches) {
    const JsonValue* crep = find_bench(cur_benches, name);
    if (crep == nullptr) {
      notes.push_back("bench '" + name + "' missing from current");
      continue;
    }

    // --- per run ------------------------------------------------------------
    const auto bruns = runs_by_key(*brep);
    const auto cruns = runs_by_key(*crep);
    for (const auto& [key, br] : bruns) {
      auto it = cruns.find(key);
      if (it == cruns.end()) {
        notes.push_back("run '" + name + ":" + key +
                        "' missing from current");
        continue;
      }
      const JsonValue& cr = *it->second;

      // --- simulated misses (sim:* rows carry no seconds) ---------------
      for (const char* sim : {"sim_l1_misses", "sim_l2_misses"}) {
        const JsonValue* bm = (*br).find(sim);
        const JsonValue* cm = cr.find(sim);
        if (bm == nullptr || cm == nullptr) continue;
        const double bv = bm->as_double();
        const double cv = cm->as_double();
        const double sim_rel = (cv - bv) / std::max(bv, 1.0);
        verdict_row(name, key + " " + sim, bv, cv, sim_rel,
                    tol_bound(opt.work_tol),
                    std::fabs(sim_rel) > opt.work_tol ? "REGRESSION" : "ok");
      }

      // --- wall time -----------------------------------------------------
      const double bs = (*br)["seconds"].as_double();
      const double cs = cr["seconds"].as_double();
      if (bs <= 0 || cs <= 0) continue;
      const double rel = cs / bs - 1.0;
      const double mad = std::max((*br)["seconds_mad"].as_double(),
                                  cr["seconds_mad"].as_double());
      // A single-repeat manifest carries seconds_mad == 0, which used to
      // collapse the MAD bound to the bare relative floor with nothing
      // in the output saying so. Make the fallback explicit: the bound
      // column names which threshold gated the row, and the degenerate
      // case is labelled so a reviewer knows the noise estimate was
      // absent, not tight.
      char bound_buf[48];
      double thresh;
      if (mad <= 0) {
        thresh = opt.min_rel * bs;
        std::snprintf(bound_buf, sizeof bound_buf, "%.0f%% floor (MAD=0)",
                      100.0 * opt.min_rel);
      } else if (opt.mads * mad >= opt.min_rel * bs) {
        thresh = opt.mads * mad;
        std::snprintf(bound_buf, sizeof bound_buf, "%.3g*MAD", opt.mads);
      } else {
        thresh = opt.min_rel * bs;
        std::snprintf(bound_buf, sizeof bound_buf, "%.0f%% floor",
                      100.0 * opt.min_rel);
      }
      const std::string bound = bound_buf;
      const std::string metric = key + " seconds";
      if (!gate_hostdep || bs < opt.min_seconds) {
        verdict_row(name, metric, bs, cs, rel, bound, "INFO");
      } else if (cs - bs > thresh) {
        verdict_row(name, metric, bs, cs, rel, bound, "REGRESSION");
      } else if (bs - cs > thresh) {
        verdict_row(name, metric, bs, cs, rel, bound, "IMPROVED");
      } else {
        verdict_row(name, metric, bs, cs, rel, bound, "ok");
      }

      // --- I/O-bound ratio (when both sides carry it) --------------------
      const JsonValue* bio = (*br).find("io_ratio");
      const JsonValue* cio = cr.find("io_ratio");
      if (bio != nullptr && cio != nullptr) {
        const double bv = bio->as_double();
        const double cv = cio->as_double();
        if (bv > 0 && cv > 0) {
          const double io_rel = cv / bv - 1.0;
          verdict_row(name, key + " io_ratio", bv, cv, io_rel,
                      tol_bound(opt.io_tol),
                      std::fabs(io_rel) > opt.io_tol ? "REGRESSION" : "ok");
        }
      }
    }

    // --- registry counters -------------------------------------------------
    const JsonValue& bctr = (*brep)["metrics"]["counters"];
    const JsonValue& cctr = (*crep)["metrics"]["counters"];
    if (!bctr.is_object() || !cctr.is_object()) continue;
    for (const auto& [cname, bval] : bctr.members()) {
      const bool work = counter_is_work(cname);
      const bool gated = counter_is_gated(cname);
      if (!work && !gated) continue;
      const JsonValue* cval = cctr.find(cname);
      if (cval == nullptr) {
        notes.push_back("counter '" + name + ":" + cname +
                        "' missing from current");
        continue;
      }
      const double b = bval.as_double();
      const double c = cval->as_double();
      if (b == 0 && c == 0) continue;
      const double rel = (c - b) / std::max(b, 1.0);
      const double tol = work ? opt.work_tol : opt.counter_tol;
      const bool gate = work || gate_hostdep;
      const char* verdict = !gate                       ? "INFO"
                            : std::fabs(rel) > tol      ? "REGRESSION"
                                                        : "ok";
      // Only surface interesting rows: drift, or any gated-class miss.
      if (std::strcmp(verdict, "ok") != 0 || std::fabs(rel) > tol / 2)
        verdict_row(name, cname, b, c, rel, tol_bound(tol), verdict);
      else
        ++v.oks;
    }
  }
  for (const auto& [name, crep] : cur_benches) {
    (void)crep;
    if (find_bench(base_benches, name) == nullptr)
      notes.push_back("bench '" + name + "' missing from baseline");
  }

  table.print(std::cout);
  for (const std::string& n : notes)
    std::printf("note: %s\n", n.c_str());
  if (!notes.empty())
    std::printf(
        "note: missing entries are not gated — regenerate the baseline "
        "manifest if the bench suite changed\n");
  std::printf(
      "\n%d regression(s), %d improvement(s), %d ok, %d informational\n",
      v.regressions, v.improvements, v.oks, v.infos);
  if (v.regressions > 0) {
    std::printf("verdict: REGRESSION\n");
    return 1;
  }
  std::printf("verdict: no regression\n");
  return 0;
}
