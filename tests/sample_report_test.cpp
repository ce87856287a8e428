// The `olden-analyze --sampled-stats` loader (analyze/sample_report.hpp)
// against the stats documents the exporter writes: a sampled round trip on
// TreeAdd and MST --tiny pins the schedule, every measured sum and every
// {estimate, ci95} pair to sample::estimate; an exact-only document loads
// with no sampled runs; nesting beyond the shared JSON reader's cap is an
// error, not a stack overflow. tools/olden_analyze_cli_test.py covers the
// exit codes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "olden/analyze/sample_report.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/sample/estimator.hpp"
#include "olden/support/json.hpp"
#include "olden/support/write_file.hpp"
#include "olden/trace/observer.hpp"

namespace olden::bench {
namespace {

/// Write `text` to a temp file named `name` and load it.
bool load_text(const std::string& name, const std::string& text,
               analyze::SampledStatsDoc* doc, std::string* err) {
  const std::string path = ::testing::TempDir() + "olden_sampled_" + name;
  return write_file(path, text, err) &&
         analyze::load_sampled_stats(path, doc, err);
}

/// One --tiny run of `name` into `obs`, labeled the way bench_cell does.
void run_tiny(trace::Observer& obs, const std::string& name) {
  const Benchmark* b = find_benchmark(name);
  ASSERT_NE(b, nullptr) << name;
  obs.begin_run("BENCH/" + name + "/p=8/global", {{"benchmark", name}});
  BenchConfig cfg{.nprocs = 8, .scheme = Coherence::kEagerGlobal};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);
}

void expect_estimate(const analyze::SampledEstimate& got,
                     const sample::Estimate& want) {
  EXPECT_EQ(got.estimate, want.value);
  EXPECT_EQ(got.ci95, want.ci95);
}

TEST(SampledStatsReader, RoundTripsEverySampledField) {
  trace::Observer obs;
  obs.set_sample({.window = 4096, .detail = 512, .offset = 0});
  run_tiny(obs, "TreeAdd");
  run_tiny(obs, "MST");

  analyze::SampledStatsDoc doc;
  std::string err;
  ASSERT_TRUE(load_text("roundtrip.json", trace::stats_json(obs), &doc, &err))
      << err;
  EXPECT_EQ(doc.schema_version, trace::kStatsSchemaVersion);
  ASSERT_EQ(doc.runs.size(), obs.runs().size());
  for (std::size_t i = 0; i < doc.runs.size(); ++i) {
    const trace::RunRecord& rec = obs.runs()[i];
    const analyze::SampledRun& run = doc.runs[i];
    SCOPED_TRACE(rec.label);
    EXPECT_EQ(run.label, rec.label);
    EXPECT_EQ(run.scheme, rec.scheme);
    EXPECT_EQ(run.benchmark, rec.meta.at("benchmark"));
    EXPECT_EQ(run.nprocs, rec.nprocs);
    EXPECT_EQ(run.makespan, rec.makespan);
    ASSERT_TRUE(run.sampled);
    EXPECT_EQ(run.window_cycles, 4096u);
    EXPECT_EQ(run.detail_cycles, 512u);
    EXPECT_EQ(run.offset_cycles, 0u);
    EXPECT_EQ(run.windows, rec.sample.windows.size());
    EXPECT_GT(run.windows, 1u);
    EXPECT_EQ(run.measured_cycles, rec.sample.measured_cycles);

    const sample::RunEstimates est =
        sample::estimate(rec.sample, rec.nprocs, rec.makespan);
    expect_estimate(run.makespan_estimate, est.makespan);
    ASSERT_EQ(run.measured_buckets.size(), trace::kNumBuckets);
    ASSERT_EQ(run.bucket_estimates.size(), trace::kNumBuckets);
    for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
      const std::string name = to_string(static_cast<trace::CycleBucket>(b));
      EXPECT_EQ(run.measured_buckets.at(name), est.measured_buckets[b])
          << name;
      expect_estimate(run.bucket_estimates.at(name), est.buckets[b]);
    }
    // Event kinds never seen in a window are omitted from both maps.
    std::size_t kinds = 0;
    for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
      if (est.measured_events[k] == 0) continue;
      ++kinds;
      const std::string name = to_string(static_cast<trace::EventKind>(k));
      EXPECT_EQ(run.measured_events.at(name), est.measured_events[k]) << name;
      expect_estimate(run.event_estimates.at(name), est.event_counts[k]);
    }
    EXPECT_GT(kinds, 0u);
    EXPECT_EQ(run.measured_events.size(), kinds);
    EXPECT_EQ(run.event_estimates.size(), kinds);
  }
}

TEST(SampledStatsReader, ExactOnlyDocumentLoadsWithNoSampledRuns) {
  trace::Observer obs;
  run_tiny(obs, "TreeAdd");

  analyze::SampledStatsDoc doc;
  std::string err;
  ASSERT_TRUE(load_text("exact.json", trace::stats_json(obs), &doc, &err))
      << err;
  ASSERT_EQ(doc.runs.size(), 1u);
  EXPECT_FALSE(doc.runs[0].sampled);
  EXPECT_EQ(doc.runs[0].makespan, obs.runs()[0].makespan);
  EXPECT_NE(analyze::sample_human_report(doc, 10)
                .find("0 sampled runs (1 exact run skipped)"),
            std::string::npos);
}

TEST(SampledStatsReader, RejectsNestingDeeperThanTheCap) {
  for (const std::string open : {"[", "{\"a\":"}) {
    std::string text;
    for (int i = 0; i < 100'000; ++i) text += open;
    analyze::SampledStatsDoc doc;
    std::string err;
    EXPECT_FALSE(load_text("deep.json", text, &doc, &err));
    EXPECT_NE(err.find("nesting deeper than 64"), std::string::npos) << err;
  }
  // The cap itself: 64 nested arrays parse, 65 do not.
  jsonio::Value v;
  std::string err;
  EXPECT_TRUE(jsonio::parse(std::string(64, '[') + std::string(64, ']'), &v,
                            &err))
      << err;
  EXPECT_FALSE(jsonio::parse(std::string(65, '[') + std::string(65, ']'), &v,
                             &err));
}

}  // namespace
}  // namespace olden::bench
