// Progress / ETA for typed I-GEP runs, derived from the engine's own
// work counters.
//
// The typed recursion already accumulates its exact update volume in
// the registry (`typed.updates.{A,B,C,D}` and `typed.mm.updates`, one
// relaxed add per leaf), and the total volume of a run is a closed form
// of (n, base size) — so percent-complete costs the hot path nothing:
// the meter snapshots the counters at begin() and divides the delta by
// the closed-form total. ETA assumes a constant update rate (exact for
// FW/MM whose leaves are uniform; a mild approximation for LU/GE).
//
// Totals (update volume of the leaves bs = leaf_side(base, n), clipped):
//   full cube (FW, TC, bottleneck, MM):  n^3
//   LU / GE (prune i0<k0 || j0<k0):      Σ_bk min(bs, r) r^2, r = n - bk bs
// slab bk keeping the tiles bi, bj >= bk (bs^3 t(t+1)(2t+1)/6, t = n/bs).
//
// GEP_OBS=0: the counters do not exist, so the meter reports fraction 0
// and unknown ETA (and the reporter thread never starts).
#pragma once

#ifndef GEP_OBS
#define GEP_OBS 1
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "obs/registry.hpp"

namespace gep::obs {

// --- closed-form work totals (pure math: shared by both builds) -----------

// Update volume of a full-cube typed run (FW / TC / bottleneck / MM).
inline double typed_cube_updates(double n) { return n * n * n; }

// Update volume of a typed LU/GE run at base size `base`.
inline double typed_lu_updates(double n, double base) {
  double bs = 1;  // leaf_side(base, n) (matrix/matrix.hpp)
  while (bs < n) bs *= 2;
  bs = std::min(bs, base);
  double total = 0;
  for (double rest = n; rest > 0; rest -= bs)
    total += std::min(bs, rest) * rest * rest;
  return total;
}

struct ProgressSample {
  double fraction = 0.0;      // updates done / closed-form total
  double elapsed_s = 0.0;
  double eta_s = -1.0;        // -1: unknown (no progress yet / GEP_OBS=0)
  double gflops = 0.0;        // achieved, from the run's flop estimate
  double updates_done = 0.0;
  double updates_total = 0.0;
};

#if GEP_OBS

inline namespace on {

class ProgressMeter {
 public:
  // `total_updates`: closed-form volume of ONE pass of the job.
  // `total_flops`: flop estimate for the same pass (for GF/s); 0 skips
  // the GF/s column.
  void begin(double total_updates, double total_flops = 0.0) {
    total_ = total_updates > 0 ? total_updates : 1.0;
    flops_ = total_flops;
    base_ = updates_now();
    t0_ = std::chrono::steady_clock::now();
  }

  ProgressSample sample() const {
    ProgressSample s;
    s.updates_total = total_;
    s.updates_done = updates_now() - base_;
    s.fraction = s.updates_done / total_;
    s.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
    if (s.fraction > 0 && s.fraction < 1.0) {
      s.eta_s = s.elapsed_s * (1.0 - s.fraction) / s.fraction;
    } else if (s.fraction >= 1.0) {
      s.eta_s = 0.0;
    }
    if (flops_ > 0 && s.elapsed_s > 0) {
      s.gflops = flops_ * s.fraction / s.elapsed_s / 1e9;
    }
    return s;
  }

 private:
  // Sum of every typed work counter: the A/B/C/D recursion families plus
  // the dedicated MM recursion.
  static double updates_now() {
    static Counter c[5] = {counter("typed.updates.A"),
                           counter("typed.updates.B"),
                           counter("typed.updates.C"),
                           counter("typed.updates.D"),
                           counter("typed.mm.updates")};
    std::uint64_t sum = 0;
    for (Counter& k : c) sum += k.value();
    return static_cast<double>(sum);
  }

  double total_ = 1.0;
  double flops_ = 0.0;
  double base_ = 0.0;
  std::chrono::steady_clock::time_point t0_{};
};

// Background stderr printer: "[progress] label 42.3% eta 12.1s ...".
// Enabled only when interval_s > 0 (benches pass env_interval(), i.e.
// $GEP_PROGRESS_SEC), so CI logs stay quiet by default.
class ProgressReporter {
 public:
  ProgressReporter(const ProgressMeter* meter, double interval_s,
                   const char* label)
      : meter_(meter), label_(label) {
    if (meter_ == nullptr || interval_s <= 0) return;
    thread_ = std::thread([this, interval_s] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock,
                     std::chrono::duration<double>(interval_s));
        if (stop_.load(std::memory_order_acquire)) break;
        const ProgressSample s = meter_->sample();
        std::fprintf(stderr,
                     "[progress] %s %5.1f%%  elapsed %.1fs  eta %s  "
                     "%.2f GF/s\n",
                     label_, 100.0 * s.fraction, s.elapsed_s,
                     s.eta_s < 0 ? "?" : fmt_eta(s.eta_s).c_str(),
                     s.gflops);
      }
    });
  }

  ~ProgressReporter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    thread_.join();
  }

  static double env_interval() {
    const char* v = std::getenv("GEP_PROGRESS_SEC");
    return v == nullptr ? 0.0 : std::atof(v);
  }

 private:
  static std::string fmt_eta(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
  }

  const ProgressMeter* meter_;
  const char* label_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace on

#else  // GEP_OBS == 0

inline namespace off {

class ProgressMeter {
 public:
  void begin(double, double = 0.0) {}
  ProgressSample sample() const { return {}; }
};

class ProgressReporter {
 public:
  ProgressReporter(const ProgressMeter*, double, const char*) {}
  static double env_interval() { return 0.0; }
};

}  // namespace off

#endif  // GEP_OBS

}  // namespace gep::obs
