// `olden-analyze --sampled-stats` report: load a v5 stats document
// produced by a `--sample` run and render the window schedule, sampling
// coverage, and per-bucket / per-event estimates with their confidence
// intervals in human form. The document is read with the shared JSON reader
// (support/json.hpp), the same one the profile reader uses; a malformed
// document or a field of the wrong type fails loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "olden/support/types.hpp"

namespace olden::analyze {

/// One {estimate, ci95} pair from the v5 `estimates` object.
struct SampledEstimate {
  std::uint64_t estimate = 0;
  std::uint64_t ci95 = 0;
};

/// One run from a stats document, as far as the sampling report needs it.
struct SampledRun {
  std::string label;
  std::string scheme;
  std::string benchmark;  ///< config.benchmark when present
  std::uint32_t nprocs = 0;
  Cycles makespan = 0;
  bool sampled = false;

  // The pinned schedule (v5 `sample` object; zero when !sampled).
  Cycles window_cycles = 0;
  Cycles detail_cycles = 0;
  Cycles offset_cycles = 0;
  std::uint64_t windows = 0;
  Cycles measured_cycles = 0;

  std::map<std::string, std::uint64_t> measured_buckets;
  std::map<std::string, std::uint64_t> measured_events;
  SampledEstimate makespan_estimate;
  std::map<std::string, SampledEstimate> bucket_estimates;
  std::map<std::string, SampledEstimate> event_estimates;
};

struct SampledStatsDoc {
  int schema_version = 0;
  std::vector<SampledRun> runs;
};

/// Load a stats JSON file. Exact (non-sampled) runs load with
/// sampled == false; the report notes and skips them. Returns false with a
/// one-line message, which does not name `path`, on an unreadable file,
/// malformed input or an unknown schema version.
bool load_sampled_stats(const std::string& path, SampledStatsDoc* out,
                        std::string* err);

/// The human report: schedule, coverage, bucket estimate table (with CI
/// as a percentage of the estimate) and the `top` largest event-count
/// estimates per sampled run.
[[nodiscard]] std::string sample_human_report(const SampledStatsDoc& doc,
                                              std::size_t top);

}  // namespace olden::analyze
