// Offline reader for the binary trace log (format v2, "OLDNTRC2").
//
// The reader is the bridge between the runtime's observability layer and
// the analysis engine: TraceStream parses the bytes StreamingTraceSink
// wrote (or binary_trace_bytes() built) back into per-run headers —
// nprocs, makespan, dropped-event count — and bounded batches of
// TraceEvents, so a multi-GB trace is never loaded as a whole. v1 logs are
// detected by magic and rejected with a versioned error, never mis-parsed.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "olden/trace/trace.hpp"

namespace olden::analyze {

/// The header of one run of a binary trace log. Its events are read
/// separately, in batches (TraceStream::next_events).
struct TraceRun {
  std::string label;
  ProcId nprocs = 0;
  Cycles makespan = 0;
  /// Events the observer discarded at its retention limit. When non-zero
  /// the event stream is incomplete and analyses flag the run truncated.
  std::uint64_t events_dropped = 0;
  /// Events recorded for the run.
  std::uint64_t num_events = 0;

  [[nodiscard]] bool truncated() const { return events_dropped > 0; }
};

/// The run headers of a whole trace file, as the JSON report lists them.
struct TraceFile {
  int version = 0;  ///< always kBinaryTraceVersion after a successful read
  std::vector<TraceRun> runs;
};

/// Streaming reader over a binary trace, from a file or from bytes held in
/// memory: run headers and bounded event batches. Every input is checked
/// before it is trusted — magic / version / v1 detection, run and event
/// counts against the bytes present, nprocs plausibility, event-kind
/// range, and no bytes past the last declared record (a back-patched
/// header whose counts disagree with the records present, e.g. an
/// unfinalized trace, is rejected rather than analyzed as a prefix) — so
/// corrupt logs fail with loud errors.
///
///   TraceStream ts;
///   ts.open(path, &err);                // or ts.open_bytes(bytes, &err)
///   TraceRun run;
///   while (ts.next_run(&run, &err)) {
///     while (ts.next_events(&batch, 65536, &err)) { ... }
///     // falls out with err empty when the run is exhausted
///   }
///   // next_run false + empty err = clean end of file
class TraceStream {
 public:
  TraceStream() = default;
  ~TraceStream();
  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  bool open(const std::string& path, std::string* err);
  /// Read a trace held in memory; `bytes` must outlive the stream.
  bool open_bytes(std::string_view bytes, std::string* err);
  /// The file being read; empty for an in-memory trace.
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int version() const { return version_; }
  [[nodiscard]] std::uint32_t num_runs() const { return num_runs_; }

  /// Advance to the next run header. Skips any unread events of the
  /// current run. Returns false with *err empty at end of file, false with
  /// *err set on malformed input.
  bool next_run(TraceRun* run, std::string* err);

  /// Read up to `max` events of the current run into *batch (replaced,
  /// not appended). Returns false with *err empty when the run's events
  /// are exhausted, false with *err set on malformed input.
  bool next_events(std::vector<trace::TraceEvent>* batch, std::size_t max,
                   std::string* err);

 private:
  bool fail(std::string* err, const std::string& msg);
  /// Validate the file header once the byte source is set.
  bool read_header(std::string* err);
  /// Copy the next `n` bytes of the source to `dst`, or skip them when
  /// `dst` is null; false when fewer than `n` remain.
  bool read(void* dst, std::uint64_t n);

  bool opened_ = false;
  std::FILE* file_ = nullptr;     ///< file source (open)
  std::string_view bytes_;        ///< in-memory source (open_bytes)
  std::string path_;
  std::uint64_t file_size_ = 0;
  std::uint64_t pos_ = 0;
  int version_ = 0;
  std::uint32_t num_runs_ = 0;
  std::uint32_t runs_delivered_ = 0;
  std::uint64_t run_events_left_ = 0;
  std::string buf_;  ///< batch read buffer, reused across next_events calls
};

}  // namespace olden::analyze
