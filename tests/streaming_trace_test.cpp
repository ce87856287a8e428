// Guarantees of the trace plane: the sink that writes every binary trace,
// the reader, and the analyzer.
//
//   * StreamingTraceSink writes the exact bytes binary_trace_bytes()
//     builds from retained events — including multi-run files and
//     dropped-event accounting at the retention limit — while the stats
//     JSON document is unchanged,
//   * Observer::adopt_runs_from reconstructs the serial record from
//     host-parallel worker observers (the bench_cell --jobs merge),
//     including when the cross-run retention limit truncates mid-suite,
//   * TraceStream reads back every field bit of every event kind the
//     sink wrote, and rejects corrupt, truncated and back-patch-mismatched
//     input, from a file and from memory alike,
//   * the analyzer's critical path sums to the makespan on healthy,
//     truncated and fault-injected runs, and it fails loudly, never
//     silently diverging, on streams that break its invariants.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analyze_helpers.hpp"
#include "olden/analyze/report.hpp"
#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/support/write_file.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"

namespace olden::bench {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "olden_streaming_" + name;
}

/// One (benchmark, scheme) cell into `obs`, the way bench_cell labels it.
void run_cell(trace::Observer& obs, const std::string& name, Coherence scheme,
              const fault::FaultSpec* faults = nullptr) {
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr) << name;
  obs.begin_run(name + "/stream-equiv");
  BenchConfig cfg{.nprocs = 4, .scheme = scheme};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = faults;
  (void)b->run(cfg);
}

struct Golden {
  std::string trace_bytes;
  std::string stats;
};

Golden run_in_memory(const std::vector<std::pair<std::string, Coherence>>& cells,
                     std::uint64_t limit) {
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(limit);
  for (const auto& [name, scheme] : cells) run_cell(obs, name, scheme);
  return {trace::binary_trace_bytes(obs), trace::stats_json(obs)};
}

Golden run_streamed(const std::vector<std::pair<std::string, Coherence>>& cells,
                    std::uint64_t limit, const std::string& path) {
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(limit);
  trace::StreamingTraceSink sink(path);
  EXPECT_TRUE(sink.ok()) << sink.error();
  obs.set_sink(&sink);
  for (const auto& [name, scheme] : cells) run_cell(obs, name, scheme);
  std::string err;
  EXPECT_TRUE(sink.finalize(&err)) << err;
  std::string bytes;
  EXPECT_TRUE(read_file(path, &bytes, &err)) << err;
  return {bytes, trace::stats_json(obs)};
}

class StreamingSinkEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Coherence>> {};

TEST_P(StreamingSinkEquivalence, SinkBytesMatchInMemoryExport) {
  const auto [name, scheme] = GetParam();
  const std::vector<std::pair<std::string, Coherence>> cells = {{name, scheme}};
  const Golden mem = run_in_memory(cells, 1'000'000);
  // The sink path must be unique per (benchmark, scheme) cell: ctest -j
  // runs the parameterized cells concurrently, and two cells sharing a
  // file race each other's writes.
  const Golden str = run_streamed(
      cells, 1'000'000,
      temp_path("sink_" + name + "_" +
                std::to_string(static_cast<int>(scheme)) + ".bin"));

  EXPECT_EQ(mem.stats, str.stats);
  ASSERT_EQ(mem.trace_bytes.size(), str.trace_bytes.size());
  EXPECT_TRUE(mem.trace_bytes == str.trace_bytes)
      << "streamed trace bytes differ for " << name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StreamingSinkEquivalence,
    ::testing::Combine(::testing::Values("TreeAdd", "MST", "Health"),
                       ::testing::Values(Coherence::kLocalKnowledge,
                                         Coherence::kEagerGlobal,
                                         Coherence::kBilateral)),
    [](const auto& info) {
      const Coherence scheme = std::get<1>(info.param);
      const char* s = scheme == Coherence::kLocalKnowledge ? "local"
                      : scheme == Coherence::kEagerGlobal  ? "global"
                                                           : "bilateral";
      return std::get<0>(info.param) + "_" + s;
    });

TEST(StreamingSink, MultiRunFileWithCrossRunTruncationMatches) {
  // A limit small enough that the suite runs dry mid-file: the first run
  // retains a prefix, later runs drop everything. The sink must write the
  // same retained events and the same events_dropped headers.
  const std::vector<std::pair<std::string, Coherence>> cells = {
      {"TreeAdd", Coherence::kLocalKnowledge},
      {"MST", Coherence::kEagerGlobal},
      {"Health", Coherence::kBilateral}};
  const Golden mem = run_in_memory(cells, 2'000);
  const Golden str = run_streamed(cells, 2'000, temp_path("trunc.bin"));

  EXPECT_EQ(mem.stats, str.stats);
  ASSERT_EQ(mem.trace_bytes.size(), str.trace_bytes.size());
  EXPECT_TRUE(mem.trace_bytes == str.trace_bytes);
}

/// The bench_cell --jobs merge: workers record into private observers
/// with the full retention limit, the main observer re-applies the
/// cross-run budget at adopt time. Byte equality with the serial record
/// is what makes --jobs output-invisible.
TEST(AdoptRuns, MergeReconstructsSerialRecord) {
  const std::vector<std::pair<std::string, Coherence>> cells = {
      {"TreeAdd", Coherence::kLocalKnowledge},
      {"MST", Coherence::kLocalKnowledge},
      {"Health", Coherence::kLocalKnowledge}};
  for (const std::uint64_t limit : {std::uint64_t{1'000'000},
                                    std::uint64_t{2'500}}) {
    const Golden serial = run_in_memory(cells, limit);

    trace::Observer main_obs;
    main_obs.set_trace_enabled(true);
    main_obs.set_event_limit(limit);
    for (const auto& [name, scheme] : cells) {
      trace::Observer worker;
      worker.set_trace_enabled(true);
      worker.set_event_limit(limit);  // full budget: superset of serial
      run_cell(worker, name, scheme);
      main_obs.adopt_runs_from(worker);
    }
    EXPECT_EQ(trace::stats_json(main_obs), serial.stats) << "limit " << limit;
    const std::string merged = trace::binary_trace_bytes(main_obs);
    ASSERT_EQ(merged.size(), serial.trace_bytes.size()) << "limit " << limit;
    EXPECT_TRUE(merged == serial.trace_bytes) << "limit " << limit;
  }
}

TEST(AdoptRuns, MergeIntoSinkMatchesSerialBytes) {
  // --jobs combined with --trace-bin: adopted runs are streamed at
  // merge time, so the file must still match the serial in-memory export.
  const std::vector<std::pair<std::string, Coherence>> cells = {
      {"TreeAdd", Coherence::kBilateral}, {"MST", Coherence::kBilateral}};
  const Golden serial = run_in_memory(cells, 3'000);

  const std::string path = temp_path("adopt_sink.bin");
  trace::Observer main_obs;
  main_obs.set_trace_enabled(true);
  main_obs.set_event_limit(3'000);
  trace::StreamingTraceSink sink(path);
  ASSERT_TRUE(sink.ok()) << sink.error();
  main_obs.set_sink(&sink);
  for (const auto& [name, scheme] : cells) {
    trace::Observer worker;
    worker.set_trace_enabled(true);
    worker.set_event_limit(3'000);
    run_cell(worker, name, scheme);
    main_obs.adopt_runs_from(worker);
  }
  std::string err;
  ASSERT_TRUE(sink.finalize(&err)) << err;
  EXPECT_EQ(trace::stats_json(main_obs), serial.stats);
  std::string streamed;
  ASSERT_TRUE(read_file(path, &streamed, &err)) << err;
  ASSERT_EQ(streamed.size(), serial.trace_bytes.size());
  EXPECT_TRUE(streamed == serial.trace_bytes);
}

/// The critical-path invariant end to end, through the reader and the
/// analyzer: on a fault-injected run (which exercises the retry buckets
/// and the fault summary) and a run truncated at the retention limit, the
/// path's weight is the traced makespan.
TEST(StreamingAnalyzer, PathSumsToMakespanOnTruncatedAndFaultedRuns) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_spec("drop=0.05,dup=0.02,delay=0.1:800", &spec, &err))
      << err;
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(20'000);  // truncates the second run
  run_cell(obs, "TreeAdd", Coherence::kBilateral, &spec);
  run_cell(obs, "MST", Coherence::kEagerGlobal);
  const std::string path = temp_path("analyze.bin");
  ASSERT_TRUE(write_file(path, trace::binary_trace_bytes(obs), &err)) << err;

  analyze::TraceStream ts;
  ASSERT_TRUE(ts.open(path, &err)) << err;
  analyze::TraceFile file;
  std::vector<analyze::RunReport> reports;
  ASSERT_TRUE(analyze::analyze_trace(&ts, 10, &file, &reports, nullptr, &err))
      << err;
  ASSERT_EQ(file.runs.size(), 2u);
  EXPECT_FALSE(file.runs[0].truncated());
  EXPECT_GT(reports[0].faults.retransmits, 0u);
  EXPECT_TRUE(file.runs[1].truncated());  // the limit bit mid-run
  EXPECT_GT(file.runs[1].num_events, 0u);
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const analyze::CriticalPath& cp = reports[r].path;
    EXPECT_EQ(cp.total_cycles, file.runs[r].makespan) << file.runs[r].label;
    std::uint64_t attributed = 0;
    for (const std::uint64_t w : cp.attribution) attributed += w;
    EXPECT_EQ(attributed, cp.total_cycles) << file.runs[r].label;
  }
  const std::string json = analyze::json_report(file, reports);
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
}

TEST(TraceStream, RejectsCorruptInput) {
  std::string err;
  // Build one small valid file to corrupt.
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(64);
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  const std::string good = trace::binary_trace_bytes(obs);

  {
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(temp_path("missing.bin"), &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
  }
  {
    const std::string path = temp_path("badmagic.bin");
    std::string bad = good;
    bad[0] = 'X';
    ASSERT_TRUE(write_file(path, bad, &err)) << err;
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(path, &err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  }
  {
    const std::string path = temp_path("v1.bin");
    std::string v1 = good;
    std::memcpy(v1.data(), trace::kBinaryTraceMagicV1, 8);
    ASSERT_TRUE(write_file(path, v1, &err)) << err;
    analyze::TraceStream ts;
    EXPECT_FALSE(ts.open(path, &err));
    EXPECT_NE(err.find("OLDNTRC1"), std::string::npos) << err;
  }
  {
    // Chop the file mid-events: the per-run plausibility bound must
    // refuse the run instead of crashing or spinning.
    const std::string path = temp_path("chopped.bin");
    ASSERT_TRUE(write_file(path, good.substr(0, good.size() - 10), &err))
        << err;
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open(path, &err)) << err;
    analyze::TraceRun run;
    EXPECT_FALSE(ts.next_run(&run, &err));
    EXPECT_NE(err.find("exceeds file size"), std::string::npos) << err;
  }
  {
    // Corrupt one event's kind byte past kNumEventKinds: next_events must
    // reject the record. Record layout: header(16) + label_len(4) + label
    // + run tail(28), then 68-byte records with the kind byte at +20.
    const std::string path = temp_path("badkind.bin");
    std::string bad = good;
    const std::uint32_t label_len =
        static_cast<std::uint8_t>(bad[16]) |
        static_cast<std::uint32_t>(static_cast<std::uint8_t>(bad[17])) << 8 |
        static_cast<std::uint32_t>(static_cast<std::uint8_t>(bad[18])) << 16 |
        static_cast<std::uint32_t>(static_cast<std::uint8_t>(bad[19])) << 24;
    const std::size_t first_record = 16 + 4 + label_len + 28;
    ASSERT_LT(first_record + 68, bad.size());
    bad[first_record + 20] = static_cast<char>(0xEE);
    ASSERT_TRUE(write_file(path, bad, &err)) << err;
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open(path, &err)) << err;
    analyze::TraceRun run;
    ASSERT_TRUE(ts.next_run(&run, &err)) << err;
    std::vector<trace::TraceEvent> batch;
    EXPECT_FALSE(ts.next_events(&batch, 4'096, &err));
    EXPECT_NE(err.find("out-of-range kind"), std::string::npos) << err;
  }
}

/// Every field of two events, one assertion each, so a mismatch names
/// the field whose offset is wrong.
void expect_same_event(const trace::TraceEvent& want,
                       const trace::TraceEvent& got, std::size_t index) {
  SCOPED_TRACE("event " + std::to_string(index));
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.proc, want.proc);
  EXPECT_EQ(got.thread, want.thread);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.site, want.site);
  EXPECT_EQ(got.arg0, want.arg0);
  EXPECT_EQ(got.arg1, want.arg1);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.chain, want.chain);
  EXPECT_EQ(got.parent, want.parent);
}

/// Wide-field events for the codec round trip: every EventKind under
/// three patterns. All-ones and alternating bits (0xAA.. and 0x55..,
/// swapped between neighbouring fields) exercise every bit; the third
/// gives each field distinct bytes, so a field written at another
/// field's offset, or shifted by a byte, reads back wrong.
std::vector<trace::TraceEvent> codec_events() {
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  constexpr std::uint64_t kAlt = 0xAAAA'AAAA'AAAA'AAAAull;
  std::vector<trace::TraceEvent> events;
  for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::uint64_t f[10];
      for (int i = 0; i < 10; ++i) {
        if (pattern == 0) {
          f[i] = kOnes;
        } else if (pattern == 1) {
          f[i] = i % 2 == 0 ? kAlt : ~kAlt;
        } else {
          // Bytes 8i+1 .. 8i+8, plus the kind, low byte first.
          f[i] = 0;
          for (int b = 0; b < 8; ++b) {
            f[i] |= static_cast<std::uint64_t>(8 * i + b + 1 + k) << (8 * b);
          }
        }
      }
      trace::TraceEvent e;
      e.time = f[0];
      e.proc = static_cast<ProcId>(f[1]);
      e.thread = f[2];
      e.kind = static_cast<trace::EventKind>(k);
      e.site = static_cast<SiteId>(f[3]);
      e.arg0 = f[4];
      e.arg1 = f[5];
      e.id = f[6];
      e.chain = f[7];
      e.parent = f[8];
      events.push_back(e);
    }
  }
  return events;
}

TEST(TraceCodec, SinkToStreamRoundTripsEveryKindAndFieldBit) {
  const std::vector<trace::TraceEvent> events = codec_events();
  const std::string path = temp_path("codec_roundtrip.bin");
  constexpr Cycles kMakespan = 0xAAAA'AAAA'AAAA'AAAAull;
  constexpr std::uint64_t kDropped = 0x5555'5555'5555'5555ull;
  {
    trace::StreamingTraceSink sink(path);
    ASSERT_TRUE(sink.ok()) << sink.error();
    sink.begin_run("codec", kMaxProcs);
    for (const trace::TraceEvent& e : events) sink.append(e);
    sink.end_run(kMakespan, kDropped);
    std::string err;
    ASSERT_TRUE(sink.finalize(&err)) << err;
  }

  std::string err;
  analyze::TraceStream ts;
  ASSERT_TRUE(ts.open(path, &err)) << err;
  analyze::TraceRun run;
  ASSERT_TRUE(ts.next_run(&run, &err)) << err;
  EXPECT_EQ(run.label, "codec");
  EXPECT_EQ(run.nprocs, kMaxProcs);
  EXPECT_EQ(run.makespan, kMakespan);
  EXPECT_EQ(run.events_dropped, kDropped);
  ASSERT_EQ(run.num_events, events.size());

  // Odd-sized batches, so batch boundaries and a short last batch (the
  // batch shrinking in place) are exercised too.
  std::vector<trace::TraceEvent> batch;
  std::size_t next = 0;
  while (ts.next_events(&batch, 7, &err)) {
    ASSERT_LE(next + batch.size(), events.size());
    for (const trace::TraceEvent& e : batch) {
      expect_same_event(events[next], e, next);
      ++next;
    }
  }
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(next, events.size());
  EXPECT_FALSE(ts.next_run(&run, &err));
  EXPECT_TRUE(err.empty()) << err;
}

TEST(TraceStream, RefusedKindLeavesTheRecordsBeforeItInTheBatch) {
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(64);
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  const std::string good = trace::binary_trace_bytes(obs);
  const std::vector<trace::TraceEvent>& recorded = obs.runs().at(0).events;
  ASSERT_GE(recorded.size(), 4u);
  const std::size_t label_len = obs.runs().at(0).label.size();
  const std::size_t first_record = 16 + 4 + label_len + 28;

  for (const std::size_t bad_index : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("bad record " + std::to_string(bad_index));
    std::string bad = good;
    bad[first_record + bad_index * trace::kBinaryRecordBytes + 20] =
        static_cast<char>(trace::kNumEventKinds);
    std::string err;
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open_bytes(bad, &err)) << err;
    analyze::TraceRun run;
    ASSERT_TRUE(ts.next_run(&run, &err)) << err;
    // Stale contents from an earlier call are replaced, not appended to.
    std::vector<trace::TraceEvent> batch(100);
    EXPECT_FALSE(ts.next_events(&batch, 4'096, &err));
    EXPECT_NE(err.find("out-of-range kind"), std::string::npos) << err;
    ASSERT_EQ(batch.size(), bad_index);
    for (std::size_t i = 0; i < bad_index; ++i) {
      expect_same_event(recorded[i], batch[i], i);
    }
  }
}

/// A streaming sink that dies (or a file copied mid-write) leaves the
/// back-patched header placeholders zeroed while the event records are
/// already on disk. The reader must reject the disagreement — from a file
/// and from memory — instead of silently analyzing the declared (empty or
/// partial) prefix.
TEST(TraceReader, RejectsBackPatchedHeaderDisagreement) {
  std::string err;
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(64);
  run_cell(obs, "TreeAdd", Coherence::kLocalKnowledge);
  const std::string good = trace::binary_trace_bytes(obs);

  // File layout: magic(8) + version(4) + num_runs(4), then per run
  // label_len(4) + label + nprocs(4) + makespan(8) + dropped(8) +
  // nevents(8) + 68-byte records.
  const std::uint32_t label_len =
      static_cast<std::uint8_t>(good[16]) |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(good[17])) << 8 |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(good[18])) << 16 |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(good[19])) << 24;
  const std::size_t nevents_off = 16 + 4 + label_len + 4 + 8 + 8;

  const auto expect_rejected_by_both = [&](const std::string& name,
                                           const std::string& bytes) {
    analyze::test_util::ReadTrace in_memory;
    EXPECT_FALSE(analyze::test_util::read_trace(bytes, &in_memory, &err))
        << name;
    EXPECT_NE(err.find("disagree"), std::string::npos) << name << ": " << err;
    EXPECT_NE(err.find("v2"), std::string::npos) << name << ": " << err;

    const std::string path = temp_path(name);
    ASSERT_TRUE(write_file(path, bytes, &err)) << err;
    analyze::TraceStream ts;
    ASSERT_TRUE(ts.open(path, &err)) << name << ": " << err;
    analyze::TraceRun run;
    std::vector<trace::TraceEvent> batch;
    bool stream_rejected = false;
    while (ts.next_run(&run, &err)) {
      while (ts.next_events(&batch, 4'096, &err)) {
      }
      if (!err.empty()) break;
    }
    stream_rejected = !err.empty();
    EXPECT_TRUE(stream_rejected) << name;
    EXPECT_NE(err.find("disagree"), std::string::npos) << name << ": " << err;
  };

  {
    // Unfinalized run header: nevents still holds the zero placeholder,
    // but the records were written. The old readers parsed "0 events" and
    // ignored the rest of the file.
    std::string bad = good;
    for (std::size_t i = 0; i < 8; ++i) bad[nevents_off + i] = 0;
    expect_rejected_by_both("zeroed_nevents.bin", bad);
  }
  {
    // Unfinalized file header: num_runs still zero, every run unclaimed.
    std::string bad = good;
    for (std::size_t i = 12; i < 16; ++i) bad[i] = 0;
    expect_rejected_by_both("zeroed_nruns.bin", bad);
  }
  {
    // Garbage appended past a perfectly finalized file.
    expect_rejected_by_both("appended.bin", good + std::string(13, '\xAB'));
  }

  // Control: the untouched bytes still parse, from memory and from a file.
  analyze::test_util::ReadTrace in_memory;
  EXPECT_TRUE(analyze::test_util::read_trace(good, &in_memory, &err)) << err;
  const std::string path = temp_path("backpatch_good.bin");
  ASSERT_TRUE(write_file(path, good, &err)) << err;
  analyze::TraceStream ts;
  ASSERT_TRUE(ts.open(path, &err)) << err;
  analyze::TraceRun run;
  std::vector<trace::TraceEvent> batch;
  while (ts.next_run(&run, &err)) {
    while (ts.next_events(&batch, 4'096, &err)) {
    }
    ASSERT_TRUE(err.empty()) << err;
  }
  EXPECT_TRUE(err.empty()) << err;
}

TEST(StreamingAnalyzer, RejectsInvariantViolations) {
  analyze::TraceRun header;
  header.label = "synthetic";
  header.nprocs = 2;
  header.makespan = 100;
  header.num_events = 2;

  auto event = [](std::uint64_t id, std::uint64_t parent) {
    trace::TraceEvent e;
    e.time = 10 * (id + 1);
    e.proc = 0;
    e.kind = trace::EventKind::kCacheMiss;
    e.id = id;
    e.parent = parent;
    return e;
  };

  {
    // Non-dense ids: record 0 claims id 5.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_FALSE(an.add(event(5, trace::kNoEvent)));
    EXPECT_NE(an.error().find("dense"), std::string::npos) << an.error();
  }
  {
    // Forward parent link: event 0 points at event 1.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_FALSE(an.add(event(0, 1)));
    EXPECT_NE(an.error().find("forward parent"), std::string::npos)
        << an.error();
  }
  {
    // Stream ends short of the header's event count.
    analyze::StreamingRunAnalyzer an(header, 10);
    EXPECT_TRUE(an.add(event(0, trace::kNoEvent)));
    analyze::RunReport rep;
    std::string err;
    EXPECT_FALSE(an.finish(&rep, &err));
    EXPECT_NE(err.find("ended at 1 of 2"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace olden::bench
