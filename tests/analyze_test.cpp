// Tests for the offline trace-analysis engine: binary-log v2 parsing
// (including rejection of v1 logs and malformed framing), the
// exact-makespan critical-path invariant on real traces, min-idle path
// selection, the heaviest-edges table and hot-site / ping-pong detection
// on synthetic DAGs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analyze_helpers.hpp"
#include "olden/analyze/report.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/trace/observer.hpp"

namespace olden::analyze {
namespace {

using test_util::analyze_bytes;
using test_util::analyze_events;
using test_util::read_trace;
using test_util::ReadTrace;
using trace::CycleBucket;
using trace::EventKind;
using trace::TraceEvent;

// --- helpers -------------------------------------------------------------

void append_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}
void append_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

/// Serialize one hand-built v2 record (must mirror export.cpp's layout).
void append_record(std::string& out, const TraceEvent& e) {
  append_u64le(out, e.time);
  append_u32le(out, e.proc);
  append_u64le(out, e.thread);
  out += static_cast<char>(e.kind);
  out.append(3, '\0');
  append_u32le(out, e.site);
  append_u64le(out, e.arg0);
  append_u64le(out, e.arg1);
  append_u64le(out, e.id);
  append_u64le(out, e.chain);
  append_u64le(out, e.parent);
}

/// A traced tiny TreeAdd run through the real machine.
trace::Observer observed_treeadd(ProcId nprocs, std::uint64_t* makespan) {
  trace::Observer obs;
  obs.set_trace_enabled(true);
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  bench::BenchConfig cfg;
  cfg.nprocs = nprocs;
  cfg.tiny = true;
  cfg.observer = &obs;
  obs.begin_run("analyze-test/TreeAdd");
  const bench::BenchResult r = b->run(cfg);
  if (makespan != nullptr) *makespan = r.total_cycles;
  return obs;
}

TraceEvent make_event(std::uint64_t id, Cycles time, ProcId proc,
                      EventKind kind, std::uint64_t arg0 = 0,
                      std::uint64_t arg1 = 0,
                      std::uint64_t parent = trace::kNoEvent) {
  TraceEvent e;
  e.id = id;
  e.time = time;
  e.proc = proc;
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.parent = parent;
  e.chain = 0;
  return e;
}

// --- reader --------------------------------------------------------------

TEST(TraceReader, RejectsV1LogsWithVersionedError) {
  std::string blob = "OLDNTRC1";
  append_u32le(blob, 1);
  append_u32le(blob, 0);
  ReadTrace got;
  std::string err;
  EXPECT_FALSE(read_trace(blob, &got, &err));
  EXPECT_NE(err.find("v1"), std::string::npos) << err;
  EXPECT_NE(err.find("OLDNTRC2"), std::string::npos) << err;
}

TEST(TraceReader, RejectsUnknownMagic) {
  ReadTrace got;
  std::string err;
  EXPECT_FALSE(read_trace("not a trace at all", &got, &err));
  EXPECT_FALSE(err.empty());
}

TEST(TraceReader, RejectsTruncatedFraming) {
  const trace::Observer obs = observed_treeadd(2, nullptr);
  const std::string bytes = trace::binary_trace_bytes(obs);
  ASSERT_GT(bytes.size(), 100u);
  std::string err;
  // Cut mid-record and mid-header; both must fail cleanly.
  ReadTrace cut_record;
  EXPECT_FALSE(read_trace(std::string_view(bytes).substr(0, bytes.size() - 7),
                          &cut_record, &err));
  ReadTrace cut_header;
  EXPECT_FALSE(
      read_trace(std::string_view(bytes).substr(0, 18), &cut_header, &err));
}

TEST(TraceReader, RejectsOutOfRangeEventKind) {
  std::string blob = "OLDNTRC2";
  append_u32le(blob, 2);  // version
  append_u32le(blob, 1);  // one run
  append_u32le(blob, 1);  // label "x"
  blob += "x";
  append_u32le(blob, 1);   // nprocs
  append_u64le(blob, 10);  // makespan
  append_u64le(blob, 0);   // dropped
  append_u64le(blob, 1);   // one event
  TraceEvent e = make_event(0, 5, 0, EventKind::kCacheHit);
  e.kind = static_cast<EventKind>(200);
  append_record(blob, e);
  ReadTrace got;
  std::string err;
  EXPECT_FALSE(read_trace(blob, &got, &err));
  EXPECT_NE(err.find("kind"), std::string::npos) << err;
}

TEST(TraceReader, RoundTripsV2IncludingCausalFields) {
  const trace::Observer obs = observed_treeadd(4, nullptr);
  ASSERT_EQ(obs.runs().size(), 1u);
  const trace::RunRecord& rec = obs.runs()[0];
  ASSERT_GT(rec.events.size(), 0u);

  const std::string bytes = trace::binary_trace_bytes(obs);
  ReadTrace read;
  std::string err;
  ASSERT_TRUE(read_trace(bytes, &read, &err)) << err;
  EXPECT_EQ(read.file.version, trace::kBinaryTraceVersion);
  ASSERT_EQ(read.file.runs.size(), 1u);
  const TraceRun& run = read.file.runs[0];
  EXPECT_EQ(run.label, rec.label);
  EXPECT_EQ(run.nprocs, rec.nprocs);
  EXPECT_EQ(run.makespan, rec.makespan);
  EXPECT_EQ(run.events_dropped, rec.events_dropped);
  EXPECT_EQ(run.num_events, rec.events.size());
  const std::vector<TraceEvent>& events = read.events[0];
  ASSERT_EQ(events.size(), rec.events.size());
  bool any_parent = false;
  bool any_chain = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& got = events[i];
    const TraceEvent& want = rec.events[i];
    EXPECT_EQ(got.time, want.time) << i;
    EXPECT_EQ(got.proc, want.proc) << i;
    EXPECT_EQ(got.thread, want.thread) << i;
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.site, want.site) << i;
    EXPECT_EQ(got.arg0, want.arg0) << i;
    EXPECT_EQ(got.arg1, want.arg1) << i;
    EXPECT_EQ(got.id, want.id) << i;
    EXPECT_EQ(got.chain, want.chain) << i;
    EXPECT_EQ(got.parent, want.parent) << i;
    any_parent = any_parent || got.parent != trace::kNoEvent;
    any_chain = any_chain || got.chain != trace::kNoChain;
  }
  // A multi-processor TreeAdd definitely produced causal links and chains.
  EXPECT_TRUE(any_parent);
  EXPECT_TRUE(any_chain);
}

// --- critical path -------------------------------------------------------

TEST(CriticalPathTest, TotalEqualsMakespanOnRealTrace) {
  // The acceptance invariant: on a real 8-processor TreeAdd trace the
  // extracted path's weight is the traced makespan, exactly, and the
  // per-bucket attribution tiles it with no remainder.
  std::uint64_t makespan = 0;
  const trace::Observer obs = observed_treeadd(8, &makespan);
  const std::string bytes = trace::binary_trace_bytes(obs);
  TraceFile file;
  std::vector<RunReport> reports;
  std::string err;
  ASSERT_TRUE(analyze_bytes(bytes, 10, &file, &reports, nullptr, &err))
      << err;
  const TraceRun& run = file.runs.at(0);
  ASSERT_EQ(run.makespan, makespan);
  ASSERT_FALSE(run.truncated());

  const CriticalPath& path = reports.at(0).path;
  EXPECT_EQ(path.total_cycles, makespan);
  std::uint64_t attributed = 0;
  for (std::uint64_t w : path.attribution) attributed += w;
  EXPECT_EQ(attributed, path.total_cycles);
  EXPECT_GT(path.edges, CriticalPath::kHeaviestEdges);
  ASSERT_EQ(path.heaviest.size(), CriticalPath::kHeaviestEdges);
  std::uint64_t heavy_sum = 0;
  for (std::size_t i = 0; i < path.heaviest.size(); ++i) {
    heavy_sum += path.heaviest[i].weight;
    if (i > 0) {
      EXPECT_GE(path.heaviest[i - 1].weight, path.heaviest[i].weight) << i;
    }
  }
  EXPECT_LE(heavy_sum, path.total_cycles);
}

TEST(CriticalPathTest, EmptyRunIsOneOpaqueEdge) {
  TraceRun run;
  run.nprocs = 2;
  run.makespan = 100;
  const CriticalPath path = analyze_events(run, {}).path;
  EXPECT_EQ(path.total_cycles, 100u);
  EXPECT_EQ(path.attribution[static_cast<int>(CycleBucket::kIdle)], 100u);
  EXPECT_EQ(path.edges, 1u);
  ASSERT_EQ(path.heaviest.size(), 1u);
  EXPECT_EQ(path.heaviest[0].key.src_kind, EdgeKey::kSourceKind);
  EXPECT_EQ(path.heaviest[0].key.dst_kind, EdgeKey::kSinkKind);
  EXPECT_EQ(path.heaviest[0].weight, 100u);
}

TEST(CriticalPathTest, PrefersThePathWithLeastIdle) {
  // Two routes to the sink: straight up proc 1 (idle until its only event
  // at t=90), or through proc 0's work at t=50 and the causal edge to
  // proc 1. Both telescope to the makespan; the extractor must take the
  // one that works longer.
  TraceRun run;
  run.nprocs = 2;
  run.makespan = 100;
  const CriticalPath path =
      analyze_events(run, {make_event(0, 50, 0, EventKind::kCacheHit, 7),
                           make_event(1, 90, 1, EventKind::kCacheHit, 7, 0,
                                      /*parent=*/0)})
          .path;
  EXPECT_EQ(path.total_cycles, 100u);
  // SOURCE -> e0 (50 compute) -> e1 (40 causal compute) -> SINK (10 idle).
  EXPECT_EQ(path.attribution[static_cast<int>(CycleBucket::kIdle)], 10u);
  EXPECT_EQ(path.attribution[static_cast<int>(CycleBucket::kCompute)], 90u);
  EXPECT_EQ(path.edges, 3u);
  ASSERT_EQ(path.heaviest.size(), 3u);
  EXPECT_EQ(path.heaviest[0].key.src_kind, EdgeKey::kSourceKind);
  EXPECT_EQ(path.heaviest[0].proc, 0u);
  EXPECT_EQ(path.heaviest[0].time, 50u);
  EXPECT_EQ(path.heaviest[1].proc, 1u);
  EXPECT_EQ(path.heaviest[1].time, 90u);
  EXPECT_EQ(path.heaviest[2].key.dst_kind, EdgeKey::kSinkKind);
}

TEST(CriticalPathTest, HeaviestEdgesKeepTiesInPathOrder) {
  // One processor, so the path is its chain: edge weights 10 10 10 10 15
  // 15 5 and 25 into SINK. The table keeps the five heaviest, weight
  // descending, equal weights in path order (SOURCE first).
  TraceRun run;
  run.nprocs = 1;
  run.makespan = 100;
  std::vector<TraceEvent> events;
  const Cycles times[] = {10, 20, 30, 40, 55, 70, 75};
  for (std::uint64_t i = 0; i < std::size(times); ++i) {
    events.push_back(make_event(i, times[i], 0, EventKind::kCacheHit, 7));
  }
  const CriticalPath path = analyze_events(run, events).path;
  EXPECT_EQ(path.total_cycles, 100u);
  EXPECT_EQ(path.edges, 8u);
  ASSERT_EQ(path.heaviest.size(), CriticalPath::kHeaviestEdges);
  constexpr auto kHit = static_cast<std::uint8_t>(EventKind::kCacheHit);
  constexpr std::uint8_t kSource = EdgeKey::kSourceKind;
  constexpr std::uint8_t kSink = EdgeKey::kSinkKind;
  const struct {
    Cycles weight;
    std::uint8_t src_kind;
    std::uint8_t dst_kind;
    Cycles time;  ///< head time (0 for SINK)
  } want[] = {{25, kHit, kSink, 0},
              {15, kHit, kHit, 55},
              {15, kHit, kHit, 70},
              {10, kSource, kHit, 10},
              {10, kHit, kHit, 20}};
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const PathEdge& got = path.heaviest[i];
    EXPECT_EQ(got.weight, want[i].weight) << i;
    EXPECT_EQ(got.key.src_kind, want[i].src_kind) << i;
    EXPECT_EQ(got.key.dst_kind, want[i].dst_kind) << i;
    EXPECT_EQ(got.time, want[i].time) << i;
  }
}

TEST(CriticalPathTest, MigrationTransitIsAttributedToMigration) {
  TraceRun run;
  run.nprocs = 2;
  run.makespan = 60;
  const CriticalPath path =
      analyze_events(
          run, {make_event(0, 10, 0, EventKind::kMigrationDepart, /*target=*/1),
                make_event(1, 40, 1, EventKind::kMigrationArrive, /*src=*/0,
                           /*transit=*/30, /*parent=*/0)})
          .path;
  EXPECT_EQ(path.total_cycles, 60u);
  EXPECT_EQ(path.attribution[static_cast<int>(CycleBucket::kMigration)], 30u);
}

// --- run reports ---------------------------------------------------------

TEST(AnalyzeReport, HotSitesMatchArrivalsToDepartures) {
  TraceRun run;
  run.nprocs = 2;
  run.makespan = 100;
  std::vector<TraceEvent> events;
  TraceEvent dep = make_event(0, 10, 0, EventKind::kMigrationDepart, 1);
  dep.site = 7;
  events.push_back(dep);
  events.push_back(make_event(1, 35, 1, EventKind::kMigrationArrive,
                              /*src=*/0, /*transit=*/25, /*parent=*/0));
  TraceEvent dep2 = make_event(2, 40, 1, EventKind::kMigrationDepart, 0);
  dep2.site = 7;
  events.push_back(dep2);
  // Second arrival's depart was dropped at the trace limit: unmatched.
  events.push_back(make_event(3, 70, 0, EventKind::kMigrationArrive,
                              /*src=*/1, /*transit=*/30, /*parent=*/99));

  const RunReport rep = analyze_events(run, events);
  ASSERT_EQ(rep.hot_sites.size(), 1u);
  EXPECT_EQ(rep.hot_sites[0].site, 7u);
  EXPECT_EQ(rep.hot_sites[0].departs, 2u);
  EXPECT_EQ(rep.hot_sites[0].arrives_matched, 1u);
  EXPECT_EQ(rep.hot_sites[0].transit_cycles, 25u);
}

TEST(AnalyzeReport, DetectsPingPongAndFalseSharing) {
  TraceRun run;
  run.nprocs = 2;
  run.makespan = 100;
  const std::uint64_t page = 5;
  const RunReport rep = analyze_events(
      run,
      {
          // Proc 0 and proc 1 both fill the page; proc 1 is invalidated
          // and then refills: one ping-pong with two sharers =
          // false-sharing suspect.
          make_event(0, 10, 0, EventKind::kCacheLineFill, page, 0),
          make_event(1, 20, 1, EventKind::kCacheLineFill, page, 1),
          make_event(2, 30, 1, EventKind::kLineInvalidate, page,
                     /*dropped=*/2),
          make_event(3, 40, 1, EventKind::kCacheLineFill, page, 1),
          // An invalidate that dropped nothing must not arm ping-pong
          // detection.
          make_event(4, 50, 0, EventKind::kLineInvalidate, page,
                     /*dropped=*/0),
          make_event(5, 60, 0, EventKind::kCacheHit, page),
      });
  EXPECT_EQ(rep.pages_tracked, 1u);
  EXPECT_EQ(rep.ping_pong_total, 1u);
  ASSERT_EQ(rep.hot_pages.size(), 1u);
  const PageStats& p = rep.hot_pages[0];
  EXPECT_EQ(p.page, page);
  EXPECT_EQ(p.heat, 1u);
  EXPECT_EQ(p.fills, 3u);
  EXPECT_EQ(p.invalidates, 1u);
  EXPECT_EQ(p.ping_pongs, 1u);
  EXPECT_EQ(p.sharers, 2u);
  EXPECT_TRUE(p.false_sharing_suspect);
}

TEST(AnalyzeReport, JsonReportIsSchemaVersioned) {
  const trace::Observer obs = observed_treeadd(4, nullptr);
  const std::string bytes = trace::binary_trace_bytes(obs);
  TraceFile file;
  std::vector<RunReport> reports;
  std::string err;
  ASSERT_TRUE(analyze_bytes(bytes, 5, &file, &reports, nullptr, &err)) << err;
  const std::string json = json_report(file, reports);
  EXPECT_NE(json.find("\"analysis_schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"generator\":\"olden-analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_sites\""), std::string::npos);
  const std::string human = human_report(file.runs[0], reports[0]);
  EXPECT_NE(human.find("critical path:"), std::string::npos);
  // The heaviest-edges table lists real edges, with the head's processor
  // and time.
  const std::size_t heaviest = human.find("  heaviest edges:\n");
  ASSERT_NE(heaviest, std::string::npos) << human;
  EXPECT_NE(human.find(" @ proc ", heaviest), std::string::npos) << human;
}

}  // namespace
}  // namespace olden::analyze
