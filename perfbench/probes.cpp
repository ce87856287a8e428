// Per-layer probes: each times one layer's public function in isolation,
// so the traced run can multiply a layer's operation count by its unit
// cost (the *_est_share ledger in perfbench.cpp).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "olden/cache/software_cache.hpp"
#include "olden/olden.hpp"
#include "olden/support/min_heap.hpp"
#include "olden/support/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace olden;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;

/// Keeps probe results observable so the timed loops are not folded away.
volatile std::uint64_t g_sink = 0;

/// Median over kRounds of `round()`, which returns {seconds, operations}.
template <class F>
double median_ns_per_op(F round) {
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const auto [secs, ops] = round();
    ns.push_back(secs * 1e9 / static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- runtime: Task call and computation migration ------------------------

Task<std::int64_t> leaf(Machine& m) {
  m.work(1);
  co_return 1;
}

Task<std::int64_t> call_loop(Machine& m, int n) {
  std::int64_t acc = 0;
  for (int i = 0; i < n; ++i) acc += co_await leaf(m);
  co_return acc;
}

struct Node {
  std::int64_t val;
  GPtr<Node> next;
};
enum RingSite : SiteId { kVal, kNext };

Task<std::int64_t> ring(Machine& m, int nodes, std::int64_t hops) {
  GPtr<Node> head, tail;
  for (int i = 0; i < nodes; ++i) {
    auto node = m.alloc<Node>(static_cast<ProcId>(i % m.nprocs()));
    co_await wr(node, &Node::val, std::int64_t{1}, kVal);
    if (tail) {
      co_await wr(tail, &Node::next, node, kNext);
    } else {
      head = node;
    }
    tail = node;
  }
  co_await wr(tail, &Node::next, head, kNext);
  std::int64_t acc = 0;
  GPtr<Node> p = head;
  for (std::int64_t i = 0; i < hops; ++i) {
    acc += co_await rd(p, &Node::val, kVal);
    p = co_await rd(p, &Node::next, kNext);
  }
  co_return acc;
}

// --- cache: a populated SoftwareCache ------------------------------------

/// Page ids spread over 31 remote homes, consecutive within a home, the
/// way per-processor heaps hand them out.
std::vector<std::uint32_t> pages(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t h = 1; ids.size() < n; h = h % 31 + 1) {
    const std::uint32_t base = (h << (kProcShift - 11)) +
                               static_cast<std::uint32_t>(rng.next_below(64));
    for (std::uint32_t i = 0; i < 16 && ids.size() < n; ++i) {
      ids.push_back(base + static_cast<std::uint32_t>(ids.size()) * 16 + i);
    }
  }
  return ids;
}

}  // namespace

Probes run_probes() {
  Probes p;
  p.call_ns = median_ns_per_op([] {
    constexpr int kCalls = 200000;
    const auto t0 = Clock::now();
    Machine m({.nprocs = 1});
    m.set_site_mechanisms({});
    g_sink = g_sink + static_cast<std::uint64_t>(
                          run_program(m, call_loop(m, kCalls)));
    return std::pair{since(t0), std::uint64_t{kCalls}};
  });
  p.migration_ns = median_ns_per_op([] {
    const auto t0 = Clock::now();
    Machine m({.nprocs = 8});
    m.set_site_mechanisms({Mechanism::kMigrate, Mechanism::kMigrate});
    g_sink = g_sink + static_cast<std::uint64_t>(
                          run_program(m, ring(m, 8, 20000)));
    return std::pair{since(t0), std::max<std::uint64_t>(
                                    m.stats().migrations, 1)};
  });

  SoftwareCache cache;
  const std::vector<std::uint32_t> ids = pages(1024, 7);
  bool created = false;
  for (std::uint32_t id : ids) cache.ensure_page(id, created).valid = ~0u;
  constexpr int kLookups = 1 << 20;
  p.lookup_hit_ns = median_ns_per_op([&] {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      // Stride through the population so the MRU shortcut rarely fires.
      acc += cache.lookup(ids[(static_cast<std::size_t>(i) * 7) %
                              ids.size()]).chain_steps;
    }
    g_sink = g_sink + acc;
    return std::pair{since(t0), std::uint64_t{kLookups}};
  });
  p.lookup_miss_ns = median_ns_per_op([&] {
    std::uint64_t acc = 0;
    const std::uint32_t absent = 40u << (kProcShift - 11);  // no such home
    const auto t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      acc += cache.lookup(absent + static_cast<std::uint32_t>(i)).chain_steps;
    }
    g_sink = g_sink + acc;
    return std::pair{since(t0), std::uint64_t{kLookups}};
  });
  p.invalidate_all_ns = median_ns_per_op([&] {
    constexpr int kFlushes = 2000;
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kFlushes; ++i) acc += cache.invalidate_all();
    g_sink = g_sink + acc;
    return std::pair{since(t0), std::uint64_t{kFlushes}};
  });

  p.heap_push_pop_ns = median_ns_per_op([] {
    constexpr int kOps = 1 << 20;
    MinHeap<std::pair<std::uint64_t, std::uint64_t>> heap;
    Rng rng(11);
    for (std::uint64_t i = 0; i < 1024; ++i) heap.push({rng.next_u64(), i});
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto top = heap.pop_min();
      acc += top.second;
      heap.push({top.first + rng.next_below(4096), i});
    }
    g_sink = g_sink + acc;
    return std::pair{since(t0), std::uint64_t{kOps}};
  });
  return p;
}

}  // namespace perfbench
