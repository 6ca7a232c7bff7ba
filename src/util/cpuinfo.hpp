// Host introspection: CPU model, core count, cache geometry.
//
// The paper's Table 2 lists the machines used for its experiments; every
// bench binary prints the equivalent row for the host it runs on so that
// EXPERIMENTS.md can record paper-vs-measured context.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gep {

struct CacheLevel {
  int level = 0;            // 1, 2, 3...
  std::string type;         // "Data", "Instruction", "Unified"
  std::size_t size_bytes = 0;
  std::size_t line_bytes = 0;
  int associativity = 0;    // 0 when unknown / fully associative
};

// x86 SIMD capability flags (CPUID + XGETBV). All false on non-x86
// hosts. `os_avx` / `os_avx512` report whether the OS context-switches
// the ymm / zmm register state (XCR0) — an ISA bit without the matching
// OS bit must not be dispatched to.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool os_avx = false;
  bool os_avx512 = false;

  // True when AVX2+FMA kernels are safe to execute on this host.
  bool can_run_avx2() const { return avx2 && fma && os_avx; }

  // True when the AVX-512F GEMM micro-kernel is also safe to execute.
  bool can_run_avx512() const {
    return can_run_avx2() && avx512f && os_avx512;
  }

  // "avx2+fma+avx512f" / "avx2+fma" / "none" — for banners and reports.
  std::string summary() const;
};

// Detected once (first call) via CPUID; never throws.
const CpuFeatures& cpu_features();

struct CpuInfo {
  std::string model_name;
  int logical_cpus = 1;
  std::vector<CacheLevel> caches;
  CpuFeatures features;

  // First data/unified cache at the given level, or a zeroed default.
  CacheLevel level(int lvl) const;

  // One-line human readable summary (model, cores, cache sizes).
  std::string summary() const;
};

// Reads /proc/cpuinfo and /sys/devices/system/cpu/cpu0/cache.
// Missing information is left defaulted; never throws.
CpuInfo query_cpu_info();

}  // namespace gep
