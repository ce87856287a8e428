// Bounded-memory analysis of traced runs: the one analyzer behind
// olden-analyze's report and --diff modes.
//
// StreamingRunAnalyzer consumes a run as a stream, in file order, and
// retains only the packed per-event fields the critical-path DP needs
// later (time, kind + an arg0-sign bit, processor, parent: 18 bytes per
// event), feeding the hot-site / page / fault aggregations as events fly
// by; their maps scale with the footprint of the simulated heap, not the
// trace length. A paper-scale trace of hundreds of MB to GB is therefore
// analyzed without ever being loaded.
//
// finish() then extracts the critical path (critical_path.hpp) over the
// packed arrays. It cannot run the DP online in file order —
// per-processor streams are not time-monotone (arrivals are stamped with
// message delivery time while flush events use the processor clock), so
// the per-processor chains only exist after a (time, id) sort. The DP
// relaxes the sorted events in that order, each event's incoming edges
// (its per-processor chain or SOURCE boundary edge, then its causal
// parent edge) in the order their sources were sorted, improving on
// strict `<` only, and closes at SINK the same way. Peak memory is the
// packed 18 bytes plus ~25 DP bytes per event.
//
// Two stream invariants are verified as the run is read (runtime traces
// satisfy them; traces that do not are refused loudly rather than
// analyzed wrongly):
//
//   * ids are dense: record i of a run carries id == i (the observer
//     numbers events per run and truncation only drops the tail),
//   * parent links point backwards (a parent is emitted before its child).
//
// The SINK -> SOURCE walk that sums the attribution also keeps the
// path's CriticalPath::kHeaviestEdges heaviest edges, so no per-edge list
// is ever materialized.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "olden/analyze/diff.hpp"
#include "olden/analyze/report.hpp"
#include "olden/analyze/trace_reader.hpp"

namespace olden::analyze {

class StreamingRunAnalyzer {
 public:
  /// `header` is the run as returned by TraceStream::next_run (events
  /// not yet read); top_n bounds the hot-site / hot-page lists.
  StreamingRunAnalyzer(const TraceRun& header, std::size_t top_n);

  /// Opt in to diff-profile retention before the first add(): keeps the
  /// head event's site and page per event (12 extra bytes each) and
  /// tracks chain spawn signatures incrementally, so finish_diff() can
  /// hand back the run's DiffProfile.
  void enable_diff_profile();

  /// Feed the run's events in file order. Returns false once a stream
  /// invariant is violated; the error latches (see error()) and further
  /// calls are no-ops.
  bool add(const trace::TraceEvent& e);

  /// Complete the analysis. Returns false (setting *err) if add() failed
  /// or the stream ended short of the header's event count.
  bool finish(RunReport* out, std::string* err);

  /// finish() plus the cross-run diff profile (diff.hpp), extracted in
  /// the same DP walk. Requires enable_diff_profile() before the first
  /// add().
  bool finish_diff(RunReport* out, DiffProfile* profile, std::string* err);

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  struct PageAcc {
    PageStats stats;
    std::set<ProcId> sharers;
    /// Processors holding a pending invalidate for this page: the next
    /// fill there completes an invalidate-then-refill round trip.
    std::unordered_set<ProcId> invalidated_on;
  };

  bool set_error(const std::string& msg);
  bool finish_impl(RunReport* out, DiffProfile* profile, std::string* err);
  /// `profile`, when non-null, receives the site/page/edge cycle charges
  /// of every walked edge (the diff-detail mode).
  void extract_critical_path(CriticalPath* path, DiffProfile* profile) const;

  std::string label_;
  bool run_truncated_ = false;
  ProcId nprocs_ = 0;
  Cycles makespan_ = 0;
  std::uint64_t expected_events_ = 0;
  std::size_t top_n_ = 10;
  std::string err_;
  std::uint64_t count_ = 0;  ///< events consumed so far == next expected id

  // Packed per-event fields, indexed by event id (dense, so id == index).
  std::vector<Cycles> time_;
  /// Event kind in the low 7 bits (kNumEventKinds < 0x80), arg0 > 0 in
  /// the top bit — everything the edge classifiers need of an endpoint.
  std::vector<std::uint8_t> kindbits_;
  /// Processor, or kProcNone for records whose proc is out of range
  /// (corrupt records get causal edges only).
  std::vector<std::uint8_t> proc_;
  /// The raw processor of each kProcNone record, for the heaviest-edges
  /// table.
  std::unordered_map<std::uint64_t, std::uint32_t> proc_out_of_range_;
  /// Parent id, or kNoParent when absent / dropped at the trace limit.
  std::vector<std::uint64_t> parent_;

  // Diff-detail retention (populated only after enable_diff_profile()).
  bool diff_ = false;
  std::vector<SiteId> site_;          ///< head-event site per event
  std::vector<std::uint64_t> page_;   ///< classify::page_of per event
  std::unordered_set<std::uint64_t> chains_seen_;
  std::map<ChainSig, std::uint64_t> chain_counts_;
  std::uint64_t chains_ = 0;

  // Report aggregation, fed one event at a time.
  std::unordered_map<std::uint64_t, SiteId> depart_site_;  ///< depart id->site
  std::map<SiteId, SiteStats> sites_;
  std::map<std::uint64_t, PageAcc> pages_;
  FaultSummary faults_;
};

/// Analyze every run of an opened trace, reading its events in bounded
/// batches. `file` receives the trace version and run headers, `reports`
/// one report per run, and `profiles`, when non-null, one diff profile per
/// run. Returns false with *err (non-null) naming the file and run on
/// malformed input or a broken stream invariant.
bool analyze_trace(TraceStream* ts, std::size_t top_n, TraceFile* file,
                   std::vector<RunReport>* reports,
                   std::vector<DiffProfile>* profiles, std::string* err);

}  // namespace olden::analyze
