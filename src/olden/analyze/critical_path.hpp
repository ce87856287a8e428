// The critical path of one traced run, as StreamingRunAnalyzer extracts
// it (streaming.hpp).
//
// The path runs through the run's causal event DAG. Its nodes are the
// run's retained events plus a synthetic SOURCE (t = 0) and SINK
// (t = makespan). Every edge is "tight": its weight is exactly
// dst.time - src.time. Edges come from three places:
//
//   * per-processor order: consecutive events on the same processor
//     (sorted by (time, id)),
//   * causality: each event's recorded parent link, skipped when the
//     parent was dropped at the trace limit or timestamps would make the
//     edge negative (per-processor streams are not globally monotone:
//     arrivals are stamped with message delivery time while flush events
//     use the processor clock),
//   * boundaries: SOURCE -> first event on each processor, last event on
//     each processor -> SINK.
//
// Because every edge is tight, *any* SOURCE -> SINK path telescopes to
// exactly the makespan — the acceptance invariant "critical-path weight
// equals the traced makespan" holds by construction. What distinguishes
// the critical path is its attribution: each edge is classified into the
// runtime's CycleBucket vocabulary (compute / migration / cache_stall /
// coherence / idle / retry) from its type and endpoint kinds, and the
// extractor picks the path that minimizes idle-attributed cycles — the
// chain of work that actually kept the makespan from shrinking.
#pragma once

#include <cstdint>
#include <vector>

#include "olden/trace/trace.hpp"

namespace olden::analyze {

/// Structural identity of one critical-path edge — everything about the
/// edge that is stable across runs of the same workload (event ids,
/// times and chains are not). The diff engine (diff.hpp) aligns runs by it.
struct EdgeKey {
  /// Sentinels for the synthetic DAG endpoints, chosen above every real
  /// EventKind value so they cannot collide.
  static constexpr std::uint8_t kSourceKind = 0xFE;
  static constexpr std::uint8_t kSinkKind = 0xFF;

  std::uint8_t src_kind = kSourceKind;  ///< EventKind of the tail, or SOURCE
  std::uint8_t dst_kind = kSinkKind;    ///< EventKind of the head, or SINK
  std::uint8_t bucket = 0;              ///< trace::CycleBucket of the edge
  SiteId site = trace::kNoSite;         ///< head event's dereference site

  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    if (a.src_kind != b.src_kind) return a.src_kind < b.src_kind;
    if (a.dst_kind != b.dst_kind) return a.dst_kind < b.dst_kind;
    if (a.bucket != b.bucket) return a.bucket < b.bucket;
    return a.site < b.site;
  }
  friend bool operator==(const EdgeKey& a, const EdgeKey& b) {
    return a.src_kind == b.src_kind && a.dst_kind == b.dst_kind &&
           a.bucket == b.bucket && a.site == b.site;
  }
};

/// Display name of an EdgeKey endpoint kind ("SOURCE", "SINK" or the
/// event kind).
[[nodiscard]] inline const char* edge_kind_name(std::uint8_t kind) {
  if (kind == EdgeKey::kSourceKind) return "SOURCE";
  if (kind == EdgeKey::kSinkKind) return "SINK";
  return trace::to_string(static_cast<trace::EventKind>(kind));
}

/// One edge of the chosen path, as the "heaviest edges" table shows it.
struct PathEdge {
  EdgeKey key;
  Cycles weight = 0;
  ProcId proc = 0;  ///< head event's processor (unused when the head is SINK)
  Cycles time = 0;  ///< head event's time (unused when the head is SINK)
};

struct CriticalPath {
  /// How many of the path's heaviest edges `heaviest` keeps.
  static constexpr std::size_t kHeaviestEdges = 5;

  /// Total path weight; equals the run's makespan whenever the run has at
  /// least one event (and the makespan alone when it has none).
  Cycles total_cycles = 0;
  /// Per-bucket attribution; sums to total_cycles.
  trace::BucketCycles attribution{};
  /// Number of edges on the chosen path.
  std::uint64_t edges = 0;
  /// The kHeaviestEdges heaviest edges: weight descending, ties in path
  /// order (SOURCE first).
  std::vector<PathEdge> heaviest;
};

}  // namespace olden::analyze
