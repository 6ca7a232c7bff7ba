// The benchmark's four workloads; README.md says why each one exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace gep::e2e {

// Per-solve quantities a traced solve reads from the objects it drives
// (task graph shape, page-cache counters) rather than from spans.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual int threads() const = 0;
  // Nominal flops of one solve, for gflops.
  virtual double flops() const = 0;

  // Generates the inputs from the seed; timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  // Untimed, once after the first solve: builds what check() compares to.
  virtual void reference() {}
  // Untimed, before every solve: restores the solve's input.
  virtual void prepare(Ledger* ledger) = 0;
  // One solve through the library's public entry point; the timed call.
  virtual void solve() = 0;
  // The same solve rebuilt from the public calls solve() makes, with a
  // span around every call into a layer under one "solve" span.
  virtual void solve_traced(Ledger& ledger, Counts& counts) = 0;
  // Untimed, after every solve. `perturb` first changes one output
  // element, so --self-test can show that the check catches it.
  virtual bool check(bool perturb) = 0;
};

// DAG workers for a requested thread count, clamped to the host's CPUs
// as the app entry points clamp it.
int dag_workers(int threads);

// Every workload, in the order run.sh runs them.
std::vector<std::unique_ptr<Workload>> make_workloads();

}  // namespace gep::e2e
