#include "olden/profile/profile_reader.hpp"

#include "olden/profile/profile.hpp"
#include "olden/support/json.hpp"
#include "olden/support/write_file.hpp"

namespace olden::profile {

namespace {

using jsonio::fail;
using jsonio::get_rows;
using jsonio::get_string;
using jsonio::get_uint;
using jsonio::Value;

bool map_site(const Value& v, const std::string& at, SiteRow* out,
              std::string* err) {
  const Value* tl = nullptr;
  if (!get_uint(v, at, "site", &out->site, err) ||
      !get_uint(v, at, "local_reads", &out->local_reads, err) ||
      !get_uint(v, at, "local_writes", &out->local_writes, err) ||
      !get_uint(v, at, "cache_hits", &out->cache_hits, err) ||
      !get_uint(v, at, "cache_misses", &out->cache_misses, err) ||
      !get_uint(v, at, "write_throughs", &out->write_throughs, err) ||
      !get_uint(v, at, "migrations", &out->migrations, err) ||
      !get_uint(v, at, "accesses", &out->accesses, err) ||
      !get_string(v, at, "mechanism", &out->mechanism, err)) {
    return false;
  }
  out->site_uid = jsonio::get_string_opt(v, "site_uid");
  if (out->mechanism != "migrate" && out->mechanism != "cache") {
    return fail(err, at + ": bad mechanism \"" + out->mechanism + "\"");
  }
  if ((tl = jsonio::get_array(v, at, "timeline", err)) == nullptr) {
    return false;
  }
  for (const Value& pair : tl->array) {
    if (pair.kind != Value::Kind::kArray || pair.array.size() != 2 ||
        pair.array[0].kind != Value::Kind::kUint ||
        pair.array[1].kind != Value::Kind::kUint) {
      return fail(err, at + ".timeline: entries must be "
                            "[interval, accesses] integer pairs");
    }
    out->timeline.emplace_back(pair.array[0].uint, pair.array[1].uint);
  }
  return true;
}

bool map_page(const Value& v, const std::string& at, PageRow* out,
              std::string* err) {
  return get_uint(v, at, "page", &out->page, err) &&
         get_uint(v, at, "local_accesses", &out->local_accesses, err) &&
         get_uint(v, at, "cache_hits", &out->cache_hits, err) &&
         get_uint(v, at, "cache_misses", &out->cache_misses, err) &&
         get_uint(v, at, "write_throughs", &out->write_throughs, err) &&
         get_uint(v, at, "line_fills", &out->line_fills, err) &&
         get_uint(v, at, "lines_invalidated", &out->lines_invalidated, err) &&
         get_uint(v, at, "timestamp_checks", &out->timestamp_checks, err);
}

bool map_proc(const Value& v, const std::string& at, ProcRow* out,
              std::string* err) {
  return get_uint(v, at, "proc", &out->proc, err) &&
         get_uint(v, at, "migrations_out", &out->migrations_out, err) &&
         get_uint(v, at, "migrations_in", &out->migrations_in, err) &&
         get_uint(v, at, "future_steals", &out->future_steals, err);
}

bool map_interval(const Value& v, const std::string& at, IntervalRow* out,
                  std::string* err) {
  const Value* cycles = nullptr;
  if (!get_uint(v, at, "interval", &out->interval, err) ||
      !get_uint(v, at, "start_cycle", &out->start_cycle, err) ||
      !get_uint(v, at, "accesses", &out->accesses, err) ||
      !get_uint(v, at, "migrations", &out->migrations, err) ||
      !get_uint(v, at, "future_steals", &out->future_steals, err) ||
      (cycles = jsonio::get_object(v, at, "cycles", err)) == nullptr) {
    return false;
  }
  for (std::size_t b = 0; b < trace::kNumBuckets; ++b) {
    if (!get_uint(*cycles, at + ".cycles",
                  to_string(static_cast<trace::CycleBucket>(b)),
                  &out->cycles[b], err)) {
      return false;
    }
  }
  return true;
}

bool map_run(const Value& v, const std::string& at, ProfileRun* out,
             std::string* err) {
  const Value* totals = nullptr;
  if (!get_string(v, at, "label", &out->label, err) ||
      !get_string(v, at, "benchmark", &out->benchmark, err) ||
      !get_string(v, at, "scheme", &out->scheme, err) ||
      !get_uint(v, at, "nprocs", &out->nprocs, err) ||
      !get_uint(v, at, "makespan_cycles", &out->makespan_cycles, err) ||
      !get_uint(v, at, "interval_cycles", &out->interval_cycles, err) ||
      !jsonio::get_bool(v, at, "sequential_baseline",
                        &out->sequential_baseline, err)) {
    return false;
  }
  if (out->interval_cycles == 0) {
    return fail(err, at + ".interval_cycles: must be > 0");
  }
  const std::string totals_at = at + ".totals";
  if ((totals = jsonio::get_object(v, at, "totals", err)) == nullptr ||
      !get_uint(*totals, totals_at, "accesses", &out->total_accesses, err) ||
      !get_uint(*totals, totals_at, "migrations", &out->total_migrations,
                err) ||
      !get_uint(*totals, totals_at, "future_steals",
                &out->total_future_steals, err)) {
    return false;
  }
  return get_rows(v, at, "sites", &out->sites, map_site, err) &&
         get_rows(v, at, "pages", &out->pages, map_page, err) &&
         get_rows(v, at, "procs", &out->procs, map_proc, err) &&
         get_rows(v, at, "intervals", &out->intervals, map_interval, err);
}

}  // namespace

bool parse_profile_json(const std::string& text, ProfileDoc* doc,
                        std::string* err) {
  Value root;
  std::uint64_t version = 0;
  if (!jsonio::parse(text, &root, err) ||
      !get_uint(root, "", "profile_schema_version", &version, err)) {
    return false;
  }
  doc->schema_version = static_cast<int>(version);
  if (version != static_cast<std::uint64_t>(kProfileSchemaVersion)) {
    return fail(err, "unsupported profile_schema_version " +
                         std::to_string(version) + " (this reader speaks " +
                         std::to_string(kProfileSchemaVersion) + ")");
  }
  std::string generator;
  if (!get_string(root, "", "generator", &generator, err)) return false;
  if (generator != "olden-profile") {
    return fail(err, "document generator \"" + generator +
                         "\" is not olden-profile");
  }
  return get_rows(root, "", "runs", &doc->runs, map_run, err);
}

bool load_profile_file(const std::string& path, ProfileDoc* doc,
                       std::string* err) {
  std::string text;
  return read_file(path, &text, err) && parse_profile_json(text, doc, err);
}

}  // namespace olden::profile
