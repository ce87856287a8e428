#include "olden/analyze/sample_report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "olden/support/json.hpp"
#include "olden/support/write_file.hpp"

namespace olden::analyze {

namespace {

using jsonio::fail;
using jsonio::field_path;
using jsonio::get_object;
using jsonio::get_string;
using jsonio::get_uint;
using jsonio::Value;

bool load_estimate(const Value& obj, const std::string& path, const char* key,
                   SampledEstimate* out, std::string* err) {
  const std::string at = field_path(path, key);
  const Value* e = get_object(obj, path, key, err);
  return e != nullptr && get_uint(*e, at, "estimate", &out->estimate, err) &&
         get_uint(*e, at, "ci95", &out->ci95, err);
}

bool load_uint_map(const Value& obj, const std::string& path, const char* key,
                   std::map<std::string, std::uint64_t>* out,
                   std::string* err) {
  const Value* m = get_object(obj, path, key, err);
  if (m == nullptr) return false;
  const std::string at = field_path(path, key);
  for (const auto& [k, v] : m->object) {
    if (!get_uint(*m, at, k.c_str(), &(*out)[k], err)) return false;
  }
  return true;
}

bool load_estimate_map(const Value& obj, const std::string& path,
                       const char* key,
                       std::map<std::string, SampledEstimate>* out,
                       std::string* err) {
  const Value* m = get_object(obj, path, key, err);
  if (m == nullptr) return false;
  const std::string at = field_path(path, key);
  for (const auto& [k, v] : m->object) {
    if (!load_estimate(*m, at, k.c_str(), &(*out)[k], err)) return false;
  }
  return true;
}

bool load_run(const Value& rv, const std::string& at, SampledRun* run,
              std::string* err) {
  const std::string config_at = at + ".config";
  const Value* config = nullptr;
  if (!get_string(rv, at, "label", &run->label, err) ||
      (config = get_object(rv, at, "config", err)) == nullptr ||
      !get_uint(*config, config_at, "nprocs", &run->nprocs, err) ||
      !get_string(*config, config_at, "scheme", &run->scheme, err) ||
      !get_uint(rv, at, "makespan_cycles", &run->makespan, err)) {
    return false;
  }
  run->benchmark = jsonio::get_string_opt(*config, "benchmark");
  // Exact runs carry no "sampled" field at all.
  if (rv.object.count("sampled") != 0 &&
      !jsonio::get_bool(rv, at, "sampled", &run->sampled, err)) {
    return false;
  }
  if (!run->sampled) return true;

  const std::string sample_at = at + ".sample";
  const std::string measured_at = at + ".measured";
  const std::string estimates_at = at + ".estimates";
  const Value* sample = nullptr;
  const Value* measured = nullptr;
  const Value* estimates = nullptr;
  return (sample = get_object(rv, at, "sample", err)) != nullptr &&
         get_uint(*sample, sample_at, "window_cycles", &run->window_cycles,
                  err) &&
         get_uint(*sample, sample_at, "detail_cycles", &run->detail_cycles,
                  err) &&
         get_uint(*sample, sample_at, "offset_cycles", &run->offset_cycles,
                  err) &&
         get_uint(*sample, sample_at, "windows", &run->windows, err) &&
         get_uint(*sample, sample_at, "measured_cycles",
                  &run->measured_cycles, err) &&
         (measured = get_object(rv, at, "measured", err)) != nullptr &&
         (estimates = get_object(rv, at, "estimates", err)) != nullptr &&
         load_uint_map(*measured, measured_at, "bucket_cycles",
                       &run->measured_buckets, err) &&
         load_uint_map(*measured, measured_at, "event_counts",
                       &run->measured_events, err) &&
         load_estimate(*estimates, estimates_at, "makespan",
                       &run->makespan_estimate, err) &&
         load_estimate_map(*estimates, estimates_at, "buckets",
                           &run->bucket_estimates, err) &&
         load_estimate_map(*estimates, estimates_at, "event_counts",
                           &run->event_estimates, err);
}

}  // namespace

bool load_sampled_stats(const std::string& path, SampledStatsDoc* out,
                        std::string* err) {
  std::string text;
  Value doc;
  std::uint64_t version = 0;
  std::string generator;
  if (!read_file(path, &text, err) || !jsonio::parse(text, &doc, err) ||
      !get_uint(doc, "", "schema_version", &version, err) ||
      !get_string(doc, "", "generator", &generator, err)) {
    return false;
  }
  out->schema_version = static_cast<int>(version);
  if (generator != "olden-trace") {
    return fail(err, "unknown generator \"" + generator + "\"");
  }
  if (version < 5) {
    return fail(err, "schema v" + std::to_string(version) +
                         " predates sampling (need v5+); re-run with "
                         "--sample");
  }
  return jsonio::get_rows(doc, "", "runs", &out->runs, load_run, err);
}

std::string sample_human_report(const SampledStatsDoc& doc, std::size_t top) {
  std::string out;
  char buf[256];
  std::size_t sampled_runs = 0;
  for (const SampledRun& run : doc.runs) {
    if (!run.sampled) continue;
    ++sampled_runs;
    std::snprintf(buf, sizeof buf,
                  "sampled run: %s (scheme %s, %u procs)\n",
                  run.label.c_str(), run.scheme.c_str(), run.nprocs);
    out += buf;
    const double pct =
        run.makespan == 0
            ? 0.0
            : 100.0 * static_cast<double>(run.measured_cycles) /
                  static_cast<double>(run.makespan);
    std::snprintf(buf, sizeof buf,
                  "  schedule %" PRIu64 ":%" PRIu64 ":%" PRIu64
                  " — %" PRIu64 " windows, %" PRIu64
                  " of %" PRIu64 " cycles measured (%.2f%%)\n",
                  run.window_cycles, run.detail_cycles, run.offset_cycles,
                  run.windows, run.measured_cycles, run.makespan, pct);
    out += buf;
    std::snprintf(buf, sizeof buf, "  %-12s %16s %16s %10s\n", "bucket",
                  "estimate", "ci95", "ci/est");
    out += buf;
    for (const auto& [name, e] : run.bucket_estimates) {
      const double rel = e.estimate == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(e.ci95) /
                                   static_cast<double>(e.estimate);
      std::snprintf(buf, sizeof buf,
                    "  %-12s %16" PRIu64 " %16" PRIu64 " %9.2f%%\n",
                    name.c_str(), e.estimate, e.ci95, rel);
      out += buf;
    }
    // Largest event-count estimates first; the map is name-ordered, so
    // collect and sort by estimate for the ranking.
    std::vector<std::pair<std::string, SampledEstimate>> events(
        run.event_estimates.begin(), run.event_estimates.end());
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.estimate > b.second.estimate;
                     });
    if (!events.empty()) {
      std::snprintf(buf, sizeof buf, "  top event estimates (of %zu):\n",
                    events.size());
      out += buf;
    }
    for (std::size_t i = 0; i < events.size() && i < top; ++i) {
      std::snprintf(buf, sizeof buf,
                    "  %-24s %16" PRIu64 " ±%" PRIu64 "\n",
                    events[i].first.c_str(), events[i].second.estimate,
                    events[i].second.ci95);
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof buf,
                "%zu sampled run%s (%zu exact run%s skipped)\n", sampled_runs,
                sampled_runs == 1 ? "" : "s", doc.runs.size() - sampled_runs,
                doc.runs.size() - sampled_runs == 1 ? "" : "s");
  out += buf;
  return out;
}

}  // namespace olden::analyze
