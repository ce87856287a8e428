// Test helpers over the one trace pipeline: read or analyze a v2 trace
// held in memory (trace::binary_trace_bytes) through TraceStream and
// StreamingRunAnalyzer, and analyze a hand-built run.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"

namespace olden::analyze::test_util {

/// Every run of a trace: its headers, and each run's events in file order.
struct ReadTrace {
  TraceFile file;
  std::vector<std::vector<trace::TraceEvent>> events;
};

/// Read every run header and event of an in-memory trace.
inline bool read_trace(std::string_view bytes, ReadTrace* out,
                       std::string* err) {
  TraceStream ts;
  if (!ts.open_bytes(bytes, err)) return false;
  out->file.version = ts.version();
  TraceRun run;
  std::vector<trace::TraceEvent> batch;
  while (ts.next_run(&run, err)) {
    out->file.runs.push_back(run);
    out->events.emplace_back();
    while (ts.next_events(&batch, 4'096, err)) {
      out->events.back().insert(out->events.back().end(), batch.begin(),
                                batch.end());
    }
    if (!err->empty()) return false;
  }
  return err->empty();
}

/// Analyze every run of an in-memory trace; `profiles`, when non-null,
/// also receives each run's diff profile.
inline bool analyze_bytes(std::string_view bytes, std::size_t top_n,
                          TraceFile* file, std::vector<RunReport>* reports,
                          std::vector<DiffProfile>* profiles,
                          std::string* err) {
  TraceStream ts;
  return ts.open_bytes(bytes, err) &&
         analyze_trace(&ts, top_n, file, reports, profiles, err);
}

/// Analyze one hand-built run: `run` supplies the header (its event count
/// is taken from `events`), `events` the records in file order.
inline RunReport analyze_events(TraceRun run,
                                const std::vector<trace::TraceEvent>& events) {
  run.num_events = events.size();
  StreamingRunAnalyzer an(run, 10);
  for (const trace::TraceEvent& e : events) {
    EXPECT_TRUE(an.add(e)) << an.error();
  }
  RunReport rep;
  std::string err;
  EXPECT_TRUE(an.finish(&rep, &err)) << err;
  return rep;
}

}  // namespace olden::analyze::test_util
