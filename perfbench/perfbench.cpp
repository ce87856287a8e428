// perfbench: host-time benchmark of the Olden simulator, end to end and
// layer by layer.
//
//   perfbench        --workload W --seed N --seconds S
//   perfbench_traced --workload W --seed N --seconds S
//                    [--out-dir DIR] [--expect FILE] [--revision REV]
//                    [--corrupt-checksum]
//
// One process, one thread, one cell at a time, p=8 simulated processors:
// a closed loop over the public entry points of the simulator libraries
// (Benchmark::site_table / run / reference_checksum, trace::Observer +
// StreamingTraceSink, analyze::TraceStream -> StreamingRunAnalyzer).
// After set-up, it repeats passes over the workload's cells until
// S seconds have elapsed, checking every output, and prints one
// "metric NAME VALUE UNIT" line per metric, a provenance line, and as its
// last line one JSON object {correct, attempted, failed, metrics}.
//
// perfbench reports the end-to-end metrics. perfbench_traced (whose global
// operator new counts allocations) alternates untraced and traced passes,
// records a span around each call into the libraries, runs the per-layer
// probes, and reports the per-layer metrics; its spans are written to DIR
// at exit. README.md lists every metric.
//
// Exit status: 0 when every check passed, 1 when any failed (after all
// metrics are printed), 2 on bad arguments or an unusable expect file.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "olden/analyze/streaming.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/runtime/machine.hpp"
#include "olden/sample/sample.hpp"
#include "olden/trace/observer.hpp"
#include "olden/trace/streaming_sink.hpp"
#include "perfbench.hpp"

namespace {

using namespace olden;
using namespace olden::bench;
using Clock = std::chrono::steady_clock;

/// BenchConfig's default seed: the committed BENCH_seed.json cells were
/// produced with it, so only this seed is checked against them.
constexpr std::uint64_t kDefaultSeed = BenchConfig{}.seed;
constexpr ProcId kProcs = 8;
constexpr const char* kFaultSpec = "drop=0.1,dup=0.05,delay=0.2:500";
constexpr const char* kSampleSpec = "65536:4096";
/// The paper-smoke CI leg's trace budget; TreeAdd stays far below it.
constexpr std::uint64_t kTraceEventLimit = 60'000'000;
constexpr std::size_t kAnalyzeBatch = std::size_t{1} << 16;
constexpr std::size_t kTopN = 10;
/// Set-ups repeated between passes, spread evenly over the run.
constexpr int kSetupRepeats = 10;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest sample with at least ten samples beyond it; the slowest
/// sample when fewer than eleven were taken.
double high_percentile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- spans -----------------------------------------------------------------

/// Spans around perfbench's calls into the libraries, kept in memory and
/// written at exit. Disabled (every call a no-op) outside traced passes.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  ///< index into spans(), or kNone for a root
    std::uint32_t pass;    ///< 0 = set-up, k = k-th traced pass
    Clock::time_point start, end;
  };
  static constexpr std::uint32_t kNone = ~0u;

  void set_pass(bool enabled, std::uint32_t pass) {
    enabled_ = enabled;
    pass_ = pass;
  }
  std::uint32_t open(const char* name) {
    if (!enabled_) return kNone;
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back({name, parent, pass_, Clock::now(), {}});
    stack_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::uint32_t id) {
    if (id == kNone) return;
    spans_[id].end = Clock::now();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] Clock::time_point origin() const { return origin_; }

  /// Self time (duration minus the children's durations) summed by span
  /// name, over spans of passes in [first_pass, last_pass].
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint32_t first_pass, std::uint32_t last_pass) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = std::chrono::duration<double>(spans_[i].end -
                                              spans_[i].start).count();
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) {
        self[spans_[i].parent] -= std::chrono::duration<double>(
                                      spans_[i].end - spans_[i].start)
                                      .count();
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].pass >= first_pass && spans_[i].pass <= last_pass) {
        out[spans_[i].name] += self[i];
      }
    }
    return out;
  }

 private:
  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

SpanLog g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.open(name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t id_;
};

// --- workloads ---------------------------------------------------------------

/// Baseline cell from the committed BENCH_seed.json (via --expect).
struct Expected {
  std::uint64_t makespan = 0;
  std::map<std::string, std::uint64_t> counters;
};

struct Cell {
  const Benchmark* b = nullptr;
  std::string scheme;
  BenchConfig cfg;
  std::uint64_t reference = 0;
  const Expected* expected = nullptr;
  /// treeadd-traced: besides the plain run, run the cell with a stats
  /// observer, streamed to disk and analyzed, and sampled.
  bool five_way = false;
};

struct Workload {
  std::string size;  ///< "tiny", "default" or "paper": baseline file key
  bool faults = false;
  std::vector<Cell> cells;
};

bool set_scheme(const std::string& name, BenchConfig* cfg) {
  if (name == "local") {
    cfg->scheme = Coherence::kLocalKnowledge;
  } else if (name == "global") {
    cfg->scheme = Coherence::kEagerGlobal;
  } else if (name == "bilateral") {
    cfg->scheme = Coherence::kBilateral;
  } else if (name == "adaptive") {
    cfg->scheme = Coherence::kEagerGlobal;
    cfg->adapt.interval = kDefaultAdaptInterval;
  } else {
    return false;
  }
  return true;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   const fault::FaultSpec* faults, Workload* w) {
  std::vector<std::string> benches, schemes;
  BenchConfig base;
  base.nprocs = kProcs;
  base.seed = seed;
  if (name == "tiny-suite") {
    for (const Benchmark* b : suite()) benches.push_back(b->name());
    schemes = {"local", "global", "bilateral", "adaptive"};
    base.tiny = true;
    w->size = "tiny";
  } else if (name == "treeadd-traced") {
    // TreeAdd at the default size (256K nodes): a pass of all five ways
    // takes under a second, so a run holds enough passes to be steady.
    benches = {"TreeAdd"};
    schemes = {"global"};
    w->size = "default";
  } else if (name == "paper-faults") {
    benches = {"EM3D", "MST"};
    schemes = {"local", "global", "bilateral"};
    base.paper_size = true;
    base.faults = faults;
    base.fault_seed = seed;
    w->size = "paper";
    w->faults = true;
  } else {
    return false;
  }
  for (const std::string& bn : benches) {
    for (const std::string& sn : schemes) {
      Cell c;
      c.b = find_benchmark(bn);
      c.scheme = sn;
      c.cfg = base;
      if (c.b == nullptr || !set_scheme(sn, &c.cfg)) return false;
      c.five_way = name == "treeadd-traced";
      w->cells.push_back(std::move(c));
    }
  }
  return true;
}

// --- output checks -----------------------------------------------------------

/// Baseline counters that MachineStats carries. threads_created is the
/// root thread plus one per stolen continuation (Machine::new_thread is
/// only called for those), so it is derived rather than skipped.
std::uint64_t counter_value(const MachineStats& s, const std::string& key,
                            bool* known) {
  *known = true;
  if (key == "cache_hits") return s.cache_hits;
  if (key == "cache_misses") return s.cache_misses;
  if (key == "cacheable_reads_remote") return s.cacheable_reads_remote;
  if (key == "cacheable_writes_remote") return s.cacheable_writes_remote;
  if (key == "futurecalls") return s.futurecalls;
  if (key == "futures_inlined") return s.futures_inlined;
  if (key == "futures_stolen") return s.futures_stolen;
  if (key == "lines_invalidated") return s.lines_invalidated;
  if (key == "migrations") return s.migrations;
  if (key == "pages_cached") return s.pages_cached;
  if (key == "return_migrations") return s.return_migrations;
  if (key == "threads_created") return s.futures_stolen + 1;
  if (key == "timestamp_checks") return s.timestamp_checks;
  if (key == "timestamp_stalls") return s.timestamp_stalls;
  if (key == "touches_blocked") return s.touches_blocked;
  *known = false;
  return 0;
}

/// Parses the expect file run.py writes from the committed baselines:
/// one cell per line, "SIZE BENCHMARK SCHEME makespan=N key=N ...".
bool load_expected(const std::string& path,
                   std::map<std::string, Expected>* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string size, bench, scheme, kv;
    if (!(ls >> size >> bench >> scheme)) continue;
    Expected e;
    bool have_makespan = false;
    while (ls >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq + 1 == kv.size()) {
        *err = path + ":" + std::to_string(lineno) + ": bad field " + kv;
        return false;
      }
      const std::string key = kv.substr(0, eq);
      const std::uint64_t v = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
      if (key == "makespan") {
        e.makespan = v;
        have_makespan = true;
      } else {
        bool known = false;
        counter_value(MachineStats{}, key, &known);
        if (!known) {
          *err = path + ":" + std::to_string(lineno) + ": unknown counter " +
                 key;
          return false;
        }
        e.counters[key] = v;
      }
    }
    if (!have_makespan) {
      *err = path + ":" + std::to_string(lineno) + ": no makespan";
      return false;
    }
    (*out)[size + " " + bench + " " + scheme] = std::move(e);
  }
  return true;
}

/// Records check outcomes for one cell execution.
struct CellCheck {
  bool ok = true;
  std::string why;
  void fail(const std::string& msg) {
    if (ok) why = msg;
    ok = false;
  }
};

void check_result(const Cell& c, const BenchResult& r, const char* mode,
                  CellCheck* chk) {
  if (r.checksum != c.reference) {
    chk->fail(std::string(mode) + " checksum " + std::to_string(r.checksum) +
              " != reference " + std::to_string(c.reference));
  }
  if (c.expected == nullptr) return;
  if (r.total_cycles != c.expected->makespan) {
    chk->fail(std::string(mode) + " makespan " +
              std::to_string(r.total_cycles) + " != baseline " +
              std::to_string(c.expected->makespan));
  }
  for (const auto& [key, want] : c.expected->counters) {
    bool known = false;
    const std::uint64_t got = counter_value(r.stats, key, &known);
    if (got != want) {
      chk->fail(std::string(mode) + " counter " + key + " " +
                std::to_string(got) + " != baseline " + std::to_string(want));
    }
  }
}

// --- one pass ----------------------------------------------------------------

/// Host seconds of one cell execution, by call.
struct CellTimes {
  double run = 0;       ///< plain (or faulted) Benchmark::run
  double stats = 0;     ///< run with a stats-only Observer
  double stream = 0;    ///< run with a StreamingTraceSink attached
  double finalize = 0;  ///< StreamingTraceSink::finalize
  double analyze = 0;   ///< TraceStream -> StreamingRunAnalyzer
  double sample = 0;    ///< run with --sample
  double add = 0;       ///< time inside StreamingRunAnalyzer::add
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;  ///< operator new calls during the plain run
};

struct PassResult {
  double seconds = 0;
  std::vector<CellTimes> cells;
  std::vector<MachineStats> stats;
};

struct Context {
  std::string trace_path;
  sample::Spec sample_spec;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
};

BenchResult timed_run(const Cell& c, const BenchConfig& cfg, const char* span,
                      double* secs) {
  SpanScope s(span);
  const auto t0 = Clock::now();
  BenchResult r = c.b->run(cfg);
  *secs = since(t0);
  return r;
}

void run_five_way(const Cell& c, const BenchResult& plain, Context* ctx,
                  CellTimes* t, CellCheck* chk) {
  {  // stats-only observer
    trace::Observer obs;
    obs.begin_run("perfbench/stats");
    BenchConfig cfg = c.cfg;
    cfg.observer = &obs;
    check_result(c, timed_run(c, cfg, "run.stats", &t->stats), "stats", chk);
  }
  std::uint64_t written = 0;
  {  // streamed trace
    trace::Observer obs;
    obs.set_trace_enabled(true);
    obs.set_event_limit(kTraceEventLimit);
    trace::StreamingTraceSink sink(ctx->trace_path);
    obs.set_sink(&sink);
    obs.begin_run("perfbench/stream");
    BenchConfig cfg = c.cfg;
    cfg.observer = &obs;
    check_result(c, timed_run(c, cfg, "run.stream", &t->stream), "stream",
                 chk);
    std::string err;
    {
      SpanScope s("sink_finalize");
      const auto t0 = Clock::now();
      if (!sink.finalize(&err)) chk->fail("sink finalize: " + err);
      t->finalize = since(t0);
    }
    written = sink.events_written();
  }
  {  // stream analysis
    std::error_code ec;
    t->bytes = std::filesystem::file_size(ctx->trace_path, ec);
    const auto t0 = Clock::now();
    std::string err;
    analyze::TraceStream ts;
    analyze::TraceRun run;
    std::uint64_t read = 0;
    bool got_run = false;
    {
      SpanScope s("next_run");
      got_run = ts.open(ctx->trace_path, &err) && ts.next_run(&run, &err);
    }
    if (!got_run) {
      chk->fail("trace stream: " + (err.empty() ? "no run" : err));
    } else {
      analyze::StreamingRunAnalyzer an(run, kTopN);
      std::vector<trace::TraceEvent> batch;
      while (true) {
        {
          SpanScope s("next_events");
          if (!ts.next_events(&batch, kAnalyzeBatch, &err)) break;
        }
        SpanScope s("add");
        const auto a0 = Clock::now();
        for (const trace::TraceEvent& e : batch) {
          if (!an.add(e)) break;
        }
        t->add += since(a0);
        read += batch.size();
      }
      analyze::RunReport rep;
      bool finished = false;
      {
        SpanScope s("finish");
        finished = err.empty() && an.finish(&rep, &err);
      }
      if (!finished) {
        chk->fail("analyzer: " + err);
      } else if (rep.path.total_cycles != run.makespan ||
                 run.makespan != plain.total_cycles) {
        chk->fail("critical path " + std::to_string(rep.path.total_cycles) +
                  " / trace makespan " + std::to_string(run.makespan) +
                  " != makespan " + std::to_string(plain.total_cycles));
      }
    }
    t->analyze = since(t0);
    t->events = read;
    if (read != written) {
      chk->fail("events read " + std::to_string(read) + " != written " +
                std::to_string(written));
    }
    std::filesystem::remove(ctx->trace_path, ec);
  }
  {  // sampled
    trace::Observer obs;
    obs.set_sample(ctx->sample_spec);
    obs.begin_run("perfbench/sample");
    BenchConfig cfg = c.cfg;
    cfg.observer = &obs;
    const BenchResult r = timed_run(c, cfg, "run.sample", &t->sample);
    check_result(c, r, "sample", chk);
    if (r.total_cycles != plain.total_cycles) {
      chk->fail("sampled makespan " + std::to_string(r.total_cycles) +
                " != exact " + std::to_string(plain.total_cycles));
    }
  }
}

PassResult run_pass(const Workload& w, Context* ctx) {
  PassResult p;
  p.cells.resize(w.cells.size());
  p.stats.resize(w.cells.size());
  SpanScope pass_span("pass");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& c = w.cells[i];
    CellTimes& t = p.cells[i];
    CellCheck chk;
    SpanScope cell_span("cell");
    try {
      const std::uint64_t a0 = perfbench::allocations();
      const BenchResult r =
          timed_run(c, c.cfg, w.faults ? "run.faults" : "run.plain", &t.run);
      t.allocs = perfbench::allocations() - a0;
      p.stats[i] = r.stats;
      check_result(c, r, w.faults ? "faults" : "plain", &chk);
      if (c.five_way) run_five_way(c, r, ctx, &t, &chk);
    } catch (const std::exception& e) {
      chk.fail(std::string("exception: ") + e.what());
    }
    ++ctx->attempted;
    if (!chk.ok) {
      ++ctx->failed;
      if (ctx->failures.size() < 8) {
        ctx->failures.push_back(c.b->name() + "/" + c.scheme + ": " +
                                chk.why);
      }
    }
  }
  p.seconds = since(t0);
  return p;
}

// --- set-up --------------------------------------------------------------------

struct SetupTimes {
  double total = 0;
  double site_tables = 0;
  double references = 0;
};

/// Heuristic site tables, host reference checksums and one warm-up run
/// of each benchmark's first cell. Returns the references via `refs`, one
/// per cell.
SetupTimes set_up(const Workload& w, std::vector<std::uint64_t>* refs) {
  SetupTimes s;
  SpanScope setup_span("setup");
  const auto t0 = Clock::now();
  (void)suite();
  refs->clear();
  for (const Cell& c : w.cells) {
    SpanScope cell_span("cell");
    {
      SpanScope sp("site_table");
      const auto a = Clock::now();
      std::string report;
      (void)c.b->site_table(c.cfg, &report);
      s.site_tables += since(a);
    }
    {
      SpanScope sp("reference_checksum");
      const auto a = Clock::now();
      refs->push_back(c.b->reference_checksum(c.cfg));
      s.references += since(a);
    }
  }
  const Benchmark* last = nullptr;
  for (const Cell& c : w.cells) {
    if (c.b == last) continue;
    last = c.b;
    SpanScope sp("warmup");
    (void)c.b->run(c.cfg);
  }
  s.total = since(t0);
  return s;
}

// --- reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string provenance_json(const std::string& workload, std::uint64_t seed,
                            const std::string& revision, bool traced) {
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  std::ostringstream o;
  o << "{\"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
    << "\", \"flags\": \"" << json_escape(PERFBENCH_FLAGS)
    << "\", \"symmetric_transfer\": " << OLDEN_SYMMETRIC_TRANSFER
    << ", \"sanitizer\": \"" << sanitizer
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"revision\": \"" << json_escape(revision) << "\", \"workload\": \""
    << json_escape(workload) << "\", \"seed\": " << seed
    << ", \"traced\": " << (traced ? "true" : "false") << "}";
  return o.str();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t accesses(const MachineStats& s) {
  return s.local_reads + s.local_writes + s.cacheable_reads +
         s.cacheable_writes;
}

void write_spans(const std::string& path, const std::string& provenance) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"provenance\": %s,\n \"spans\": [\n", provenance.c_str());
  const auto& spans = g_spans.spans();
  const auto ns = [](Clock::duration d) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %lld, \"pass\": %u, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i,
                 s.parent == SpanLog::kNone ? -1LL
                                            : static_cast<long long>(s.parent),
                 s.pass, s.name, ns(s.start - g_spans.origin()),
                 ns(s.end - g_spans.origin()), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
}

bool flag_value(int argc, char** argv, int* i, const char* name,
                std::string* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "perfbench: %s needs a value\n", name);
    std::exit(2);
  }
  *out = argv[++*i];
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, seed_str, seconds_str;
  std::string out_dir = ".", expect_path, revision = "unknown";
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argc, argv, &i, "--workload", &workload_name) ||
        flag_value(argc, argv, &i, "--seed", &seed_str) ||
        flag_value(argc, argv, &i, "--seconds", &seconds_str) ||
        flag_value(argc, argv, &i, "--out-dir", &out_dir) ||
        flag_value(argc, argv, &i, "--expect", &expect_path) ||
        flag_value(argc, argv, &i, "--revision", &revision)) {
      continue;
    }
    if (std::strcmp(argv[i], "--corrupt-checksum") == 0) {
      corrupt = true;  // self-test: expect one reference checksum to be wrong
      continue;
    }
    std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
    return 2;
  }
  std::uint64_t seed = 0, seconds = 0;
  if (!parse_u64(seed_str, &seed) || !parse_u64(seconds_str, &seconds) ||
      seconds == 0) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S "
                 "[--out-dir DIR] [--expect FILE] [--revision REV] "
                 "[--corrupt-checksum]\n",
                 argv[0]);
    return 2;
  }
  const bool traced = perfbench::alloc_counting();

  fault::FaultSpec faults;
  std::string err;
  if (!fault::parse_fault_spec(kFaultSpec, &faults, &err)) {
    std::fprintf(stderr, "perfbench: fault spec: %s\n", err.c_str());
    return 2;
  }
  Workload w;
  if (!make_workload(workload_name, seed, &faults, &w)) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (tiny-suite, "
                 "treeadd-traced, paper-faults)\n",
                 workload_name.c_str());
    return 2;
  }
  std::map<std::string, Expected> expected;
  if (!expect_path.empty() && !load_expected(expect_path, &expected, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (seed == kDefaultSeed && !w.faults) {
    for (Cell& c : w.cells) {
      if (c.cfg.adapt.interval != 0) continue;  // no adaptive baselines
      const auto it =
          expected.find(w.size + " " + c.b->name() + " " + c.scheme);
      if (it != expected.end()) c.expected = &it->second;
    }
  }

  Context ctx;
  if (!sample::parse_spec(kSampleSpec, &ctx.sample_spec, &err)) {
    std::fprintf(stderr, "perfbench: sample spec: %s\n", err.c_str());
    return 2;
  }
  ctx.trace_path = out_dir + "/trace-" + workload_name + "-" +
                   std::to_string(seed) + ".bin";
  const std::string provenance =
      provenance_json(workload_name, seed, revision, traced);

  // Set-up before the first pass; its references check every pass. It is
  // repeated between passes, spread over the run, so that setup_s (the
  // median) samples the same host conditions as pass_s and not only the
  // run's first second (README.md, "Noise").
  std::vector<double> setup_total, setup_tables, setup_refs;
  std::vector<std::uint64_t> refs;
  const auto record_setup = [&] {
    const SetupTimes s = set_up(w, &refs);
    setup_total.push_back(s.total);
    setup_tables.push_back(s.site_tables);
    setup_refs.push_back(s.references);
  };
  g_spans.set_pass(traced, 0);
  record_setup();
  g_spans.set_pass(false, 0);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    w.cells[i].reference = refs[i];
  }
  if (corrupt) ++w.cells.front().reference;

  perfbench::Probes probes;
  if (traced) probes = perfbench::run_probes();

  // Timed passes. The traced run alternates untraced and traced passes:
  // the per-layer times come from the untraced ones, which carry no spans.
  std::vector<PassResult> plain_passes, traced_passes;
  const auto loop_start = Clock::now();
  const double budget = static_cast<double>(seconds);
  // A round is one untraced pass, plus one traced pass in the traced run.
  // Rounds stop when the next one would end past the budget (there is
  // always at least one), so a run measures at most S seconds of passes.
  double round_s = 0;
  auto last_setup = loop_start;
  do {
    const auto r0 = Clock::now();
    g_spans.set_pass(false, 0);
    plain_passes.push_back(run_pass(w, &ctx));
    if (traced) {
      g_spans.set_pass(true,
                       static_cast<std::uint32_t>(traced_passes.size() + 1));
      traced_passes.push_back(run_pass(w, &ctx));
      g_spans.set_pass(false, 0);
    }
    if (since(last_setup) >= budget / kSetupRepeats) {
      record_setup();
      last_setup = Clock::now();
    }
    round_s = std::max(round_s, since(r0));
  } while (since(loop_start) + round_s <= budget);

  // Timings are means over the run's passes. Host speed drifts in epochs
  // longer than a pass; the mean varies smoothly with the share of a run
  // spent in slow epochs, where a median or a minimum flips between them
  // (README.md, "Noise").
  const std::size_t ncells = w.cells.size();
  const auto cell_mean = [&](std::size_t i, double CellTimes::*field) {
    double sum = 0;
    for (const PassResult& p : plain_passes) sum += p.cells[i].*field;
    return sum / static_cast<double>(plain_passes.size());
  };
  const auto mean_seconds = [](const std::vector<PassResult>& passes) {
    double sum = 0;
    for (const PassResult& p : passes) sum += p.seconds;
    return ratio(sum, static_cast<double>(passes.size()));
  };
  std::vector<double> pass_secs;
  for (const PassResult& p : plain_passes) pass_secs.push_back(p.seconds);
  const double pass_s = mean_seconds(plain_passes);
  MachineStats total;  // summed over one pass's cells
  std::uint64_t pass_accesses = 0;
  for (const MachineStats& s : plain_passes.front().stats) {
    pass_accesses += accesses(s);
    total.migrations += s.migrations;
    total.return_migrations += s.return_migrations;
    total.futurecalls += s.futurecalls;
    total.futures_inlined += s.futures_inlined;
    total.futures_stolen += s.futures_stolen;
    total.touches_blocked += s.touches_blocked;
    total.scheme_flips += s.scheme_flips;
    total.cacheable_reads_remote += s.cacheable_reads_remote;
    total.cacheable_writes_remote += s.cacheable_writes_remote;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.pages_cached += s.pages_cached;
    total.cache_flushes += s.cache_flushes;
    total.lines_invalidated += s.lines_invalidated;
    total.invalidation_messages += s.invalidation_messages;
    total.timestamp_checks += s.timestamp_checks;
    total.tracked_writes += s.tracked_writes;
    total.fault_messages += s.fault_messages;
    total.fault_drops += s.fault_drops;
    total.retransmissions += s.retransmissions;
    total.duplicates_suppressed += s.duplicates_suppressed;
    total.coherence_requests += s.coherence_requests;
    total.replies_ignored += s.replies_ignored;
  }
  double run_s = 0, stats_s = 0, stream_s = 0, analyze_s = 0, sample_s = 0;
  for (std::size_t i = 0; i < ncells; ++i) {
    run_s += cell_mean(i, &CellTimes::run);
    stats_s += cell_mean(i, &CellTimes::stats);
    stream_s += cell_mean(i, &CellTimes::stream) +
                cell_mean(i, &CellTimes::finalize);
    analyze_s += cell_mean(i, &CellTimes::analyze);
    sample_s += cell_mean(i, &CellTimes::sample);
  }

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit)});
  };
  if (!traced) {
    add("pass_s", pass_s, "s");
    add("sim_accesses_per_s",
        ratio(static_cast<double>(pass_accesses), pass_s), "1/s");
    add("setup_s", median(setup_total), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::uint64_t allocs = 0;
    for (const CellTimes& t : traced_passes.back().cells) allocs += t.allocs;
    const double run_ns = run_s * 1e9;
    const double frames_share =
        ratio(static_cast<double>(allocs) * probes.call_ns, run_ns);
    const double migration_share =
        ratio(static_cast<double>(total.migrations) * probes.migration_ns,
              run_ns);
    const double cache_share = ratio(
        static_cast<double>(total.cache_hits) * probes.lookup_hit_ns +
            static_cast<double>(total.cache_misses) * probes.lookup_miss_ns +
            static_cast<double>(total.cache_flushes) *
                probes.invalidate_all_ns,
        run_ns);
    const double acc = static_cast<double>(pass_accesses);
    add("runtime.run_s", run_s, "s");
    add("runtime.accesses", acc, "count");
    add("runtime.futurecalls", static_cast<double>(total.futurecalls),
        "count");
    add("runtime.futures_inlined_ratio",
        ratio(static_cast<double>(total.futures_inlined),
              static_cast<double>(total.futurecalls)),
        "ratio");
    add("runtime.threads_created",
        static_cast<double>(total.futures_stolen + ncells), "count");
    add("runtime.touches_blocked", static_cast<double>(total.touches_blocked),
        "count");
    add("runtime.scheme_flips", static_cast<double>(total.scheme_flips),
        "count");
    add("runtime.allocs", static_cast<double>(allocs), "count");
    add("runtime.allocs_per_access", ratio(static_cast<double>(allocs), acc),
        "ratio");
    add("runtime.call_ns", probes.call_ns, "ns");
    add("runtime.frames_est_share", frames_share, "share");
    add("runtime.migrations", static_cast<double>(total.migrations), "count");
    add("runtime.return_migrations",
        static_cast<double>(total.return_migrations), "count");
    add("runtime.migration_ns", probes.migration_ns, "ns");
    add("runtime.migration_est_share", migration_share, "share");
    const double remote = static_cast<double>(total.cacheable_reads_remote +
                                              total.cacheable_writes_remote);
    add("cache.remote_refs", remote, "count");
    add("cache.hits", static_cast<double>(total.cache_hits), "count");
    add("cache.misses", static_cast<double>(total.cache_misses), "count");
    add("cache.hit_ratio",
        ratio(static_cast<double>(total.cache_hits),
              static_cast<double>(total.cache_hits + total.cache_misses)),
        "ratio");
    add("cache.pages_cached", static_cast<double>(total.pages_cached),
        "count");
    add("cache.flushes", static_cast<double>(total.cache_flushes), "count");
    add("cache.lines_invalidated",
        static_cast<double>(total.lines_invalidated), "count");
    add("cache.invalidation_messages",
        static_cast<double>(total.invalidation_messages), "count");
    add("cache.ts_checks", static_cast<double>(total.timestamp_checks),
        "count");
    add("cache.tracked_writes", static_cast<double>(total.tracked_writes),
        "count");
    add("cache.lookup_hit_ns", probes.lookup_hit_ns, "ns");
    add("cache.lookup_miss_ns", probes.lookup_miss_ns, "ns");
    add("cache.invalidate_all_ns", probes.invalidate_all_ns, "ns");
    add("cache.est_share", cache_share, "share");
    add("ledger.unattributed_share",
        1.0 - frames_share - migration_share - cache_share, "share");
    add("support.heap_push_pop_ns", probes.heap_push_pop_ns, "ns");

    // Fault layer: the faulted run against a fault-free twin of each cell.
    double fault_free_s = 0;
    if (w.faults) {
      for (const Cell& c : w.cells) {
        BenchConfig cfg = c.cfg;
        cfg.faults = nullptr;
        constexpr int kReruns = 3;
        const auto t0 = Clock::now();
        for (int r = 0; r < kReruns; ++r) (void)c.b->run(cfg);
        fault_free_s += since(t0) / kReruns;
      }
    }
    const double msgs = static_cast<double>(total.fault_messages);
    add("fault.messages", msgs, "count");
    add("fault.drops", static_cast<double>(total.fault_drops), "count");
    add("fault.retransmissions", static_cast<double>(total.retransmissions),
        "count");
    add("fault.duplicates_suppressed",
        static_cast<double>(total.duplicates_suppressed), "count");
    add("fault.coherence_requests",
        static_cast<double>(total.coherence_requests), "count");
    add("fault.replies_ignored", static_cast<double>(total.replies_ignored),
        "count");
    add("fault.delivery_ratio",
        ratio(msgs, msgs + static_cast<double>(total.retransmissions)),
        "ratio");
    add("fault.overhead", ratio(run_s, fault_free_s), "ratio");

    // Observer, sink, analyzer and sampler (treeadd-traced only).
    double events = 0, bytes = 0, add_s = 0;
    for (std::size_t i = 0; i < ncells; ++i) {
      events += static_cast<double>(plain_passes.front().cells[i].events);
      bytes += static_cast<double>(plain_passes.front().cells[i].bytes);
      add_s += cell_mean(i, &CellTimes::add);
    }
    const bool five_way = w.cells.front().five_way;
    add("trace.stats_overhead", ratio(stats_s, run_s) * five_way, "ratio");
    add("trace.stream_overhead", ratio(stream_s, run_s) * five_way, "ratio");
    add("trace.events", events, "count");
    add("trace.bytes", bytes, "B");
    add("trace.sink_mb_per_s",
        ratio(bytes / 1e6, std::max(stream_s - stats_s, 1e-9)) * five_way,
        "MB/s");
    add("sample.overhead", ratio(sample_s, run_s) * five_way, "ratio");
    // Share of the pass spent beyond simulating: the four runs of the
    // cell each simulate once, so everything past 4 x run_s is observer,
    // sink, analyzer and sampler work.
    add("trace.obs_share",
        five_way ? ratio(pass_s - 4 * run_s, pass_s) : 0.0, "share");
    add("analyze_s", analyze_s, "s");
    add("analyze.events_per_s", ratio(events, analyze_s), "1/s");
    add("analyze.add_ns", ratio(add_s * 1e9, events), "ns");

    add("compiler.site_table_s", median(setup_tables), "s");
    add("bench.reference_s", median(setup_refs), "s");
    for (const Benchmark* b : suite()) {
      double secs = 0;
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < ncells; ++i) {
        if (w.cells[i].b != b) continue;
        secs += cell_mean(i, &CellTimes::run);
        n += accesses(plain_passes.front().stats[i]);
      }
      add("bench." + b->name() + ".ns_per_access",
          ratio(secs * 1e9, static_cast<double>(n)), "ns");
    }

    // Spans: self time per call, per traced pass.
    const auto self =
        g_spans.self_seconds(1, static_cast<std::uint32_t>(
                                    traced_passes.size()));
    const double np = static_cast<double>(traced_passes.size());
    const double traced_pass_s = mean_seconds(traced_passes);
    double self_sum = 0;
    for (const auto& [name, s] : self) self_sum += s;
    const auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / np;
    };
    add("span.glue.self_s", self_of("pass") + self_of("cell"), "s");
    for (const char* name :
         {"run.plain", "run.faults", "run.stats", "run.stream",
          "sink_finalize", "next_run", "next_events", "add", "finish",
          "run.sample"}) {
      add(std::string("span.") + name + ".self_s", self_of(name), "s");
    }
    add("span.self_sum_ratio", ratio(self_sum / np, traced_pass_s), "ratio");
    // span.overhead_s, traced_pass_s minus the uncounted binary's pass_s,
    // is added by run.py, which runs both binaries.
    add("span.traced_pass_s", traced_pass_s, "s");
    write_spans(out_dir + "/spans-" + workload_name + "-" +
                    std::to_string(seed) + ".json",
                provenance);
  }
  std::error_code ec;
  std::filesystem::remove(ctx.trace_path, ec);  // left behind by a failure
  const double fail_frac = ratio(static_cast<double>(ctx.failed),
                                 static_cast<double>(ctx.attempted));

  for (const std::string& f : ctx.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("provenance %s\n", provenance.c_str());
  std::printf("metric passes %zu count\n", pass_secs.size());
  std::printf("metric setups %zu count\n", setup_total.size());
  std::printf("metric pass_s_median %.6g s\n", median(pass_secs));
  std::printf("metric pass_s_hi %.6g s\n", high_percentile(pass_secs));
  std::printf("pass_seconds");
  for (double v : pass_secs) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("metric fail_frac %.6g ratio\n", fail_frac);
  if (!traced && w.cells.front().five_way) {
    std::printf("metric analyze_s %.6g s\n", analyze_s);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ctx.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return ctx.failed == 0 ? 0 : 1;
}
