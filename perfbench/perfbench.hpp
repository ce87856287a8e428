// Internal interfaces of perfbench: the allocation counter
// (linked only into perfbench_traced) and the per-layer probes.
#pragma once

#include <cstdint>

namespace perfbench {

/// True in the traced binary, whose global operator new counts calls.
bool alloc_counting();
/// Global operator new calls so far (0 when not counting).
std::uint64_t allocations();

/// Host nanoseconds per operation of one layer's public function, each
/// called in isolation (median of several rounds).
struct Probes {
  double call_ns = 0;            ///< Task call: frame alloc, resume, return
  double migration_ns = 0;       ///< one computation migration
  double lookup_hit_ns = 0;      ///< SoftwareCache::lookup, page present
  double lookup_miss_ns = 0;     ///< SoftwareCache::lookup, page absent
  double invalidate_all_ns = 0;  ///< SoftwareCache::invalidate_all
  double heap_push_pop_ns = 0;   ///< MinHeap push + pop_min
};

Probes run_probes();

}  // namespace perfbench
