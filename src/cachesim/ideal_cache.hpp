// Ideal-cache model simulator (Frigo et al. [11], as used by the paper).
//
// A single fully-associative cache of M bytes with B-byte blocks. The
// model prescribes an optimal offline replacement policy; like all
// practical simulators (and like the paper's Cachegrind measurements) we
// use LRU, which is within a constant factor of optimal for any
// algorithm under the standard resource-augmentation argument.
//
// The cache-complexity claims under test:
//   GEP    incurs Θ(n³ / B)        misses,
//   I-GEP  incurs Θ(n³ / (B√M))    misses (tall cache, M = Ω(B²)).
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "matrix/matrix.hpp"

namespace gep {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;

  double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
  // Block transfers between cache and memory (the paper's "I/Os").
  std::uint64_t io() const { return misses + dirty_writebacks; }
};

// Publishes `s` into the global metrics registry as gauges named
// "cachesim.<prefix>.{accesses,misses,evictions,writebacks}", so benches
// can print SIMULATED miss counts next to hardware-counter ones and the
// JSON reporter picks both up from one snapshot. No-op when GEP_OBS=0.
void publish_cachesim_gauges(const std::string& prefix, const CacheStats& s);

class IdealCache {
 public:
  // capacity_bytes = M, block_bytes = B (both > 0; M >= B).
  IdealCache(std::uint64_t capacity_bytes, std::uint64_t block_bytes);

  void access(std::uintptr_t addr, bool write);
  void flush();  // write back and drop everything

  const CacheStats& stats() const { return stats_; }
  std::uint64_t capacity_blocks() const { return capacity_blocks_; }
  std::uint64_t block_bytes() const { return block_bytes_; }

 private:
  struct Line {
    std::uint64_t block;
    bool dirty;
  };
  std::uint64_t capacity_blocks_;
  std::uint64_t block_bytes_;
  std::list<Line> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Line>::iterator> where_;
  CacheStats stats_;
};

// Simulated addresses. A replay addresses the simulator at a fixed base
// per traced matrix plus the element's byte offset, never at the
// matrix's heap address: set-associative set mapping then follows the
// algorithm's accesses alone, so simulated counts repeat from process to
// process whatever the allocator did. Matrix `slot` of a replay starts
// at sim_base(slot): page-aligned, slots 4 GiB apart plus one page per
// slot. The page stagger keeps equal power-of-two matrices from mapping
// element (i, j) to the same cache set in each of them, as a heap that
// gives every large block a header page would.
inline constexpr std::uintptr_t kSimPageBytes = 4096;

inline std::uintptr_t sim_base(int slot) {
  const auto s = static_cast<std::uintptr_t>(slot);
  return ((s + 1) << 32) + s * kSimPageBytes;
}

// Trace-feeding accessor: wraps a row-major matrix with row stride n,
// forwards every element load and store to a simulator (at simulated
// address sim_base(slot) + byte offset) before touching memory.
// Satisfies the generic engines' Accessor concept, so G / I-GEP / C-GEP
// run unmodified under simulation; a rectangular C-GEP slice store is
// one with its own row stride as n.
template <class T, class Sim>
class TracedAccess {
 public:
  using value_type = T;

  TracedAccess(T* data, index_t n, Sim* sim, int slot)
      : data_(data), n_(n), sim_(sim), base_(sim_base(slot)) {}

  index_t n() const { return n_; }
  T get(index_t i, index_t j) const {
    sim_->access(addr(i, j), false);
    return data_[i * n_ + j];
  }
  void set(index_t i, index_t j, T v) {
    sim_->access(addr(i, j), true);
    data_[i * n_ + j] = v;
  }

 private:
  std::uintptr_t addr(index_t i, index_t j) const {
    return base_ + static_cast<std::uintptr_t>(i * n_ + j) * sizeof(T);
  }

  T* data_;
  index_t n_;
  Sim* sim_;
  std::uintptr_t base_;
};

}  // namespace gep
