#include "olden/analyze/streaming.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "olden/analyze/classify.hpp"

namespace olden::analyze {

namespace {

using trace::CycleBucket;
using trace::EventKind;
using trace::TraceEvent;

constexpr Cycles kInf = std::numeric_limits<Cycles>::max();
/// pred sentinel for "reached straight from SOURCE".
constexpr std::uint64_t kFromSource = ~std::uint64_t{0};
/// Edge-head sentinel for the synthetic SINK.
constexpr std::uint64_t kSink = ~std::uint64_t{0} - 1;
/// last_on_proc sentinel for "no event on this processor yet".
constexpr std::uint64_t kNone = ~std::uint64_t{0};
/// parent_ sentinel: no parent, or parent dropped at the trace limit.
constexpr std::uint64_t kNoParent = ~std::uint64_t{0};
/// proc_ sentinel for out-of-range processor ids (corrupt records).
constexpr std::uint8_t kProcNone = 0xFF;

static_assert(trace::kNumEventKinds < 0x80,
              "kind must fit 7 bits next to the arg0-sign bit");
static_assert(kMaxProcs < kProcNone, "proc must fit a byte with a sentinel");

/// Offer one path edge to the heaviest-edges list (weight descending, ties
/// in path order). The walk visits the path back to front, so `e` comes
/// before every kept edge in path order: it ranks ahead of the first one
/// it ties or outweighs.
void keep_heaviest(std::vector<PathEdge>* heaviest, const PathEdge& e) {
  const auto at = std::find_if(
      heaviest->begin(), heaviest->end(),
      [&](const PathEdge& kept) { return kept.weight <= e.weight; });
  if (at - heaviest->begin() >=
      static_cast<std::ptrdiff_t>(CriticalPath::kHeaviestEdges)) {
    return;
  }
  heaviest->insert(at, e);
  if (heaviest->size() > CriticalPath::kHeaviestEdges) heaviest->pop_back();
}

}  // namespace

StreamingRunAnalyzer::StreamingRunAnalyzer(const TraceRun& header,
                                           std::size_t top_n)
    : label_(header.label),
      run_truncated_(header.truncated()),
      nprocs_(header.nprocs),
      makespan_(header.makespan),
      expected_events_(header.num_events),
      top_n_(top_n) {
  time_.reserve(expected_events_);
  kindbits_.reserve(expected_events_);
  proc_.reserve(expected_events_);
  parent_.reserve(expected_events_);
}

void StreamingRunAnalyzer::enable_diff_profile() {
  diff_ = true;
  site_.reserve(expected_events_);
  page_.reserve(expected_events_);
}

bool StreamingRunAnalyzer::set_error(const std::string& msg) {
  if (err_.empty()) err_ = msg;
  return false;
}

bool StreamingRunAnalyzer::add(const TraceEvent& e) {
  if (!err_.empty()) return false;
  const std::uint64_t i = count_;
  if (e.id != i) {
    return set_error("event record " + std::to_string(i) + " carries id " +
                     std::to_string(e.id) +
                     ": the trace breaks the dense-id invariant (record i "
                     "of a run must carry id i, as the runtime numbers "
                     "them)");
  }
  std::uint64_t parent = kNoParent;
  if (e.parent != trace::kNoEvent && e.parent < expected_events_) {
    if (e.parent >= i) {
      return set_error("event " + std::to_string(i) +
                       " carries a forward parent link " +
                       std::to_string(e.parent) +
                       ": the trace breaks the backward-parent invariant "
                       "(a parent must be emitted before its child)");
    }
    parent = e.parent;
  }

  time_.push_back(e.time);
  kindbits_.push_back(static_cast<std::uint8_t>(e.kind) |
                      (e.arg0 > 0 ? std::uint8_t{0x80} : std::uint8_t{0}));
  if (e.proc < nprocs_) {
    proc_.push_back(static_cast<std::uint8_t>(e.proc));
  } else {
    proc_.push_back(kProcNone);
    proc_out_of_range_.emplace(i, e.proc);
  }
  parent_.push_back(parent);
  if (diff_) {
    site_.push_back(e.site);
    page_.push_back(classify::page_of(e.kind, e.arg0));
    // First sighting of a chain in file order carries its spawn
    // signature.
    if (e.chain != trace::kNoChain && chains_seen_.insert(e.chain).second) {
      ++chains_;
      ++chain_counts_[{static_cast<std::uint8_t>(e.kind), e.site}];
    }
  }

  // --- report aggregation ------------------------------------------------
  switch (e.kind) {
    case EventKind::kMigrationDepart: {
      depart_site_.emplace(i, e.site);
      SiteStats& s = sites_[e.site];
      s.site = e.site;
      ++s.departs;
      break;
    }
    case EventKind::kMigrationArrive: {
      if (e.parent == trace::kNoEvent) break;
      const auto it = depart_site_.find(e.parent);
      if (it == depart_site_.end()) break;  // dropped, or not a depart
      SiteStats& s = sites_[it->second];
      s.site = it->second;
      ++s.arrives_matched;
      s.transit_cycles += e.arg1;
      break;
    }
    case EventKind::kCacheHit:
    case EventKind::kCacheMiss: {
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.heat;
      break;
    }
    case EventKind::kCacheLineFill: {
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.fills;
      a.sharers.insert(e.proc);
      if (a.invalidated_on.erase(e.proc) > 0) ++a.stats.ping_pongs;
      break;
    }
    case EventKind::kLineInvalidate:
    case EventKind::kTimestampCheck: {
      if (e.arg1 == 0) break;  // nothing was actually dropped
      PageAcc& a = pages_[e.arg0];
      a.stats.page = e.arg0;
      ++a.stats.invalidates;
      a.invalidated_on.insert(e.proc);
      break;
    }
    case EventKind::kFaultDrop:
      ++faults_.drops;
      break;
    case EventKind::kFaultDelay:
      ++faults_.delays;
      break;
    case EventKind::kFaultDuplicate:
      ++faults_.duplicates;
      break;
    case EventKind::kRetransmit:
      faults_.count_retransmit(e.arg0);
      break;
    case EventKind::kDupSuppressed:
      ++faults_.dup_suppressed;
      break;
    case EventKind::kHiccup:
      ++faults_.hiccups;
      faults_.hiccup_cycles += e.arg0;
      break;
    default:
      break;
  }

  ++count_;
  return true;
}

void StreamingRunAnalyzer::extract_critical_path(CriticalPath* path,
                                                 DiffProfile* profile) const {
  path->attribution.fill(0);
  const std::uint64_t n = count_;

  // Topological order: events by (time, id). Parent links always point at
  // earlier-emitted (smaller-id) events, so this sorts every retained
  // edge's source before its destination, and walking it per processor
  // yields each processor's chain in order.
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (time_[a] != time_[b]) return time_[a] < time_[b];
              return a < b;
            });

  std::vector<Cycles> cost(n, kInf);
  std::vector<std::uint64_t> pred(n, kFromSource);
  std::vector<std::uint8_t> bucket(n, 0);
  std::vector<std::uint64_t> last_on_proc(nprocs_, kNone);

  // Min-idle DP: minimize idle-attributed cycles from SOURCE. Every path
  // has the same total weight (tight edges telescope), so "least idle"
  // picks the chain of work that actually determined the makespan. The
  // tie-break rule is relaxation in topological order (SOURCE, then
  // `order`), each source's edges chain before causal, improving on strict
  // `<` only. Per destination that is evaluating its incoming candidates
  // ordered by source position — SOURCE first, then (time, id), chain
  // before causal on a shared source — which needs no adjacency lists.
  struct Cand {
    std::uint64_t src = kFromSource;  ///< kFromSource = synthetic SOURCE
    CycleBucket bucket = CycleBucket::kCompute;
    bool valid = false;
  };
  for (const std::uint64_t idx : order) {
    const EventKind dst_kind = static_cast<EventKind>(kindbits_[idx] & 0x7F);
    const bool dst_arg0_pos = (kindbits_[idx] & 0x80) != 0;

    Cand chain;
    Cand causal;
    if (proc_[idx] != kProcNone) {
      const std::uint64_t prev = last_on_proc[proc_[idx]];
      if (prev == kNone) {
        // Processor 0 runs the root from t = 0; every other processor is
        // idle until something reaches it.
        chain.src = kFromSource;
        chain.bucket = proc_[idx] == 0
                           ? classify::dst_bucket(dst_kind, dst_arg0_pos)
                           : CycleBucket::kIdle;
        chain.valid = true;
      } else {
        chain.src = prev;
        chain.bucket = classify::chain_bucket(
            static_cast<EventKind>(kindbits_[prev] & 0x7F), dst_kind,
            dst_arg0_pos);
        chain.valid = cost[prev] != kInf;
      }
      last_on_proc[proc_[idx]] = idx;
    }
    const std::uint64_t par = parent_[idx];
    // Skipped when the edge would be negative (arrivals are stamped with
    // delivery time) or the parent is unreachable.
    if (par != kNoParent && time_[par] <= time_[idx] && cost[par] != kInf) {
      causal.src = par;
      causal.bucket = classify::causal_bucket(
          static_cast<EventKind>(kindbits_[par] & 0x7F), dst_kind,
          dst_arg0_pos);
      causal.valid = true;
    }

    Cycles best = kInf;
    std::uint64_t best_pred = kFromSource;
    CycleBucket best_bucket = CycleBucket::kCompute;
    auto consider = [&](const Cand& c) {
      if (!c.valid) return;
      const Cycles ts = c.src == kFromSource ? 0 : time_[c.src];
      const Cycles base = c.src == kFromSource ? 0 : cost[c.src];
      const Cycles add =
          c.bucket == CycleBucket::kIdle ? time_[idx] - ts : 0;
      const Cycles cand = base + add;
      if (cand < best) {
        best = cand;
        best_pred = c.src;
        best_bucket = c.bucket;
      }
    };
    const bool chain_first = [&] {
      if (!chain.valid || !causal.valid) return true;  // order irrelevant
      if (chain.src == kFromSource) return true;  // SOURCE relaxes first
      if (chain.src == causal.src) return true;   // chain edge pushed first
      if (time_[chain.src] != time_[causal.src]) {
        return time_[chain.src] < time_[causal.src];
      }
      return chain.src < causal.src;
    }();
    if (chain_first) {
      consider(chain);
      consider(causal);
    } else {
      consider(causal);
      consider(chain);
    }
    cost[idx] = best;
    pred[idx] = best_pred;
    bucket[idx] = static_cast<std::uint8_t>(best_bucket);
  }

  // Close the DP at SINK: candidates are the per-processor last events in
  // the same (time, id) relaxation order; when nothing was traced the
  // whole run is one SOURCE -> SINK idle edge.
  std::vector<std::uint64_t> lasts;
  for (ProcId p = 0; p < nprocs_; ++p) {
    if (last_on_proc[p] != kNone) lasts.push_back(last_on_proc[p]);
  }
  std::sort(lasts.begin(), lasts.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (time_[a] != time_[b]) return time_[a] < time_[b];
              return a < b;
            });
  Cycles sink_cost = kInf;
  std::uint64_t sink_pred = kFromSource;
  if (lasts.empty()) {
    sink_cost = makespan_;  // SOURCE -> SINK, idle, weight = makespan
  } else {
    for (const std::uint64_t src : lasts) {
      if (cost[src] == kInf) continue;
      if (makespan_ < time_[src]) continue;  // negative edge: skipped
      const Cycles cand = cost[src] + (makespan_ - time_[src]);
      if (cand < sink_cost) {
        sink_cost = cand;
        sink_pred = src;
      }
    }
    if (sink_cost == kInf) return;  // unreachable: no edges at all
  }

  // Walk SINK -> SOURCE accumulating attribution; edge weights are tight,
  // so each is just the time gap to the predecessor. The same walk keeps
  // the heaviest edges and, in diff mode, charges each edge's cycles to
  // the profile's site / page / edge partitions (zero-weight edges
  // skipped: they cannot carry a delta).
  const auto take_edge = [&](std::uint64_t src, std::uint64_t dst,
                             std::uint8_t edge_bucket) {
    const Cycles w = (dst == kSink ? makespan_ : time_[dst]) -
                     (src == kFromSource ? 0 : time_[src]);
    path->attribution[edge_bucket] += w;
    path->total_cycles += w;
    ++path->edges;
    PathEdge edge;
    edge.key.src_kind = src == kFromSource
                            ? EdgeKey::kSourceKind
                            : static_cast<std::uint8_t>(kindbits_[src] & 0x7F);
    edge.key.bucket = edge_bucket;
    edge.weight = w;
    std::uint64_t page = classify::kNoPage;
    if (dst != kSink) {
      edge.key.dst_kind = static_cast<std::uint8_t>(kindbits_[dst] & 0x7F);
      edge.proc = proc_[dst] != kProcNone ? proc_[dst]
                                          : proc_out_of_range_.at(dst);
      edge.time = time_[dst];
      if (diff_) {
        edge.key.site = site_[dst];
        page = page_[dst];
      }
    }
    keep_heaviest(&path->heaviest, edge);
    if (profile != nullptr && w > 0) {
      profile->site_cycles[edge.key.site] += w;
      profile->page_cycles[page] += w;
      profile->edge_cycles[edge.key] += w;
    }
  };
  take_edge(sink_pred, kSink, static_cast<std::uint8_t>(CycleBucket::kIdle));
  for (std::uint64_t cur = sink_pred; cur != kFromSource; cur = pred[cur]) {
    take_edge(pred[cur], cur, bucket[cur]);
  }
}

bool StreamingRunAnalyzer::finish(RunReport* out, std::string* err) {
  return finish_impl(out, nullptr, err);
}

bool StreamingRunAnalyzer::finish_diff(RunReport* out, DiffProfile* profile,
                                       std::string* err) {
  *profile = DiffProfile{};
  if (!diff_) {
    if (err != nullptr) {
      *err = "finish_diff requires enable_diff_profile() before add()";
    }
    return false;
  }
  if (!finish_impl(out, profile, err)) return false;
  profile->label = label_;
  profile->nprocs = nprocs_;
  profile->makespan = makespan_;
  profile->events = count_;
  profile->truncated = run_truncated_;
  profile->buckets = out->path.attribution;
  profile->chain_counts = chain_counts_;
  profile->chains = chains_;
  profile->retries_by_class = faults_.retransmits_by_class;
  return true;
}

bool StreamingRunAnalyzer::finish_impl(RunReport* out, DiffProfile* profile,
                                       std::string* err) {
  if (err_.empty() && count_ != expected_events_) {
    set_error("run event stream ended at " + std::to_string(count_) + " of " +
              std::to_string(expected_events_) + " events");
  }
  if (!err_.empty()) {
    if (err != nullptr) *err = err_;
    return false;
  }
  RunReport rep;
  extract_critical_path(&rep.path, profile);

  // --- rank sites and pages ----------------------------------------------
  for (const auto& [site, s] : sites_) rep.hot_sites.push_back(s);
  std::stable_sort(rep.hot_sites.begin(), rep.hot_sites.end(),
                   [](const SiteStats& a, const SiteStats& b) {
                     return a.departs > b.departs;
                   });
  if (rep.hot_sites.size() > top_n_) rep.hot_sites.resize(top_n_);

  rep.pages_tracked = pages_.size();
  for (auto& [page, a] : pages_) {
    a.stats.sharers = static_cast<std::uint32_t>(a.sharers.size());
    a.stats.false_sharing_suspect =
        a.stats.ping_pongs > 0 && a.stats.sharers >= 2;
    rep.ping_pong_total += a.stats.ping_pongs;
    rep.hot_pages.push_back(a.stats);
  }
  std::stable_sort(rep.hot_pages.begin(), rep.hot_pages.end(),
                   [](const PageStats& a, const PageStats& b) {
                     return a.heat > b.heat;
                   });
  if (rep.hot_pages.size() > top_n_) rep.hot_pages.resize(top_n_);

  rep.faults = faults_;
  *out = std::move(rep);
  return true;
}

bool analyze_trace(TraceStream* ts, std::size_t top_n, TraceFile* file,
                   std::vector<RunReport>* reports,
                   std::vector<DiffProfile>* profiles, std::string* err) {
  constexpr std::size_t kBatch = 1 << 16;
  file->version = ts->version();
  std::vector<TraceEvent> batch;
  TraceRun run;
  while (ts->next_run(&run, err)) {
    StreamingRunAnalyzer an(run, top_n);
    if (profiles != nullptr) an.enable_diff_profile();
    while (ts->next_events(&batch, kBatch, err)) {
      for (const TraceEvent& e : batch) {
        if (!an.add(e)) break;
      }
      if (!an.error().empty()) break;
    }
    if (!err->empty()) return false;
    RunReport rep;
    DiffProfile profile;
    const bool ok = profiles != nullptr ? an.finish_diff(&rep, &profile, err)
                                        : an.finish(&rep, err);
    if (!ok) {
      *err = (ts->path().empty() ? "" : ts->path() + ": ") + "run '" +
             run.label + "': " + *err;
      return false;
    }
    reports->push_back(std::move(rep));
    if (profiles != nullptr) profiles->push_back(std::move(profile));
    file->runs.push_back(run);
  }
  return err->empty();
}

}  // namespace olden::analyze
