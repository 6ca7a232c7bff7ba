#include "simd/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/registry.hpp"
#include "util/cpuinfo.hpp"

namespace gep::simd {
namespace {

// -1 = no override; otherwise a Level value.
std::atomic<int> g_forced{-1};

bool env_scalar() {
  static const bool v = [] {
    const char* s = std::getenv("GEP_FORCE_SCALAR");
    return s != nullptr && s[0] != '\0' && std::strcmp(s, "0") != 0;
  }();
  return v;
}

Level detected_level() {
  static const Level l = cpu_features().can_run_avx512() ? Level::Avx512
                         : cpu_features().can_run_avx2() ? Level::Avx2
                                                         : Level::Scalar;
  return l;
}

}  // namespace

bool avx2_available() { return detected_level() >= Level::Avx2; }

bool avx512_available() { return detected_level() == Level::Avx512; }

bool forced_scalar_env() { return env_scalar(); }

Level active() {
  if (env_scalar()) return Level::Scalar;
  const int f = g_forced.load(std::memory_order_relaxed);
  if (f >= 0) {
    return std::min(static_cast<Level>(f), detected_level());
  }
  return detected_level();
}

void force_level(Level l) {
  g_forced.store(static_cast<int>(l), std::memory_order_relaxed);
}

void clear_forced_level() { g_forced.store(-1, std::memory_order_relaxed); }

const char* level_name(Level l) {
  switch (l) {
    case Level::Avx512:
      return "avx512";
    case Level::Avx2:
      return "avx2";
    case Level::Scalar:
      break;
  }
  return "scalar";
}

void note_leaf(Level l) {
  static obs::Counter counters[] = {obs::counter("kernels.dispatch.scalar"),
                                    obs::counter("kernels.dispatch.avx2"),
                                    obs::counter("kernels.dispatch.avx512")};
  counters[static_cast<int>(l)].inc();
}

}  // namespace gep::simd
