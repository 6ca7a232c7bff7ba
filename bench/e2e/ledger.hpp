// Outside-in span ledger for the traced run (run.sh --trace).
//
// The benchmark, not the library, records these spans: each traced solve
// is rebuilt from the public calls the app entry points make, and every
// call into a layer is bracketed here. Spans go to per-thread buffers
// (no lock on the recording path) and are collected after each traced
// solve, once the solve's pool threads have exited.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gep::e2e {

struct Span {
  int id = 0;
  int parent = -1;         // enclosing span; -1 at the top of an iteration
  const char* layer = "";  // a string literal
  double t0 = 0, t1 = 0;   // seconds since the ledger's epoch
  int solve = 0;           // which traced solve the span belongs to
  int tid = 0;             // recording thread, numbered per collection
};

class Ledger {
 public:
  Ledger() : epoch_(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Tags the spans recorded from now on (set between traced solves).
  void set_solve(int solve) { solve_.store(solve, std::memory_order_relaxed); }

  // Appends a finished span to the calling thread's buffer.
  void record(int id, int parent, const char* layer, double t0, double t1);

  // Moves every buffered span out. No other thread may be recording.
  std::vector<Span> take();

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int> next_id_{0};
  std::atomic<int> solve_{0};
  std::atomic<unsigned> generation_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// RAII span; a null ledger records nothing (untraced iterations).
class Scope {
 public:
  Scope(Ledger* ledger, const char* layer, int parent = -1)
      : ledger_(ledger), layer_(layer), parent_(parent) {
    if (ledger_ != nullptr) {
      id_ = ledger_->next_id();
      t0_ = ledger_->now();
    }
  }
  ~Scope() {
    if (ledger_ != nullptr)
      ledger_->record(id_, parent_, layer_, t0_, ledger_->now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Ledger* ledger_;
  const char* layer_;
  int parent_;
  int id_ = -1;
  double t0_ = 0;
};

// One traced solve, reduced: per layer name, the span count, the summed
// duration and the summed self time (duration minus the part of it that
// child spans cover).
struct LayerTotals {
  int calls = 0;
  double total = 0;
  double self = 0;
};
struct SolveLedger {
  double solve_s = 0;   // the "solve" span
  double covered = 0;   // summed durations of the solve span's children
  std::map<std::string, LayerTotals> layers;
};

SolveLedger analyze(const std::vector<Span>& spans);

// Writes spans as a Chrome trace (chrome://tracing, Perfetto).
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace gep::e2e
