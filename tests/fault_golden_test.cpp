// Golden values for faulted runs. fault_test checks that a faulted run
// repeats itself and keeps its checksum; this file checks that it stays the
// *same run*: makespan, every MachineStats counter (the per-class fault
// ledgers included) and an FNV-1a digest of the binary trace, pinned per
// case. Any host-side rework of the fault plane or the event queue must
// leave every number here unchanged.
//
// The table was generated from the fault plane that kept three ordered
// pending maps and a per-channel dedup window, before it moved to one
// hashed message table and a per-id acceptance bitmap. A failing case
// prints its actual row in table syntax; replace a row only together with
// a change that is meant to move cycles, counters or trace bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "olden/bench/benchmark.hpp"
#include "olden/fault/fault_spec.hpp"
#include "olden/olden.hpp"
#include "olden/trace/observer.hpp"

namespace olden {
namespace {

constexpr std::size_t kNumCounters = 69;
static_assert(sizeof(MachineStats) == kNumCounters * sizeof(std::uint64_t),
              "MachineStats gained a field: add it to counters() and "
              "regenerate the golden table");

using Counters = std::array<std::uint64_t, kNumCounters>;

/// Every MachineStats counter, in declaration order.
Counters counters(const MachineStats& s) {
  Counters c{};
  std::size_t i = 0;
  for (std::uint64_t v :
       {s.local_reads, s.local_writes, s.cacheable_reads, s.cacheable_writes,
        s.cacheable_reads_remote, s.cacheable_writes_remote, s.cache_hits,
        s.cache_misses, s.timestamp_checks, s.timestamp_stalls, s.migrations,
        s.return_migrations, s.futurecalls, s.futures_inlined,
        s.futures_stolen, s.touches_blocked, s.cache_flushes,
        s.lines_invalidated, s.invalidation_messages, s.tracked_writes,
        s.scheme_flips, s.flips_to_cache, s.flips_to_migrate,
        s.flip_drain_lines, s.flip_drain_messages, s.pages_cached,
        s.fault_messages, s.fault_drops, s.fault_duplicates, s.fault_delays,
        s.retransmissions, s.duplicates_suppressed, s.acks_sent,
        s.hiccups_injected, s.hiccup_cycles, s.coherence_requests,
        s.replies_ignored}) {
    c[i++] = v;
  }
  for (const auto* arr : {&s.class_sent, &s.class_drops, &s.class_dups,
                          &s.class_delays, &s.class_retries}) {
    for (std::uint64_t v : *arr) c[i++] = v;
  }
  c[i++] = s.allocations;
  c[i++] = s.bytes_allocated;
  EXPECT_EQ(i, kNumCounters);
  return c;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

enum Wire {
  /// The mixed lossy wire every benchmark x scheme case runs on.
  kMixed,
  /// Coherence-only faults with a timeout far under the delay ceiling:
  /// requests retransmit while their replies are still in flight, so
  /// surplus replies and re-serviced requests both occur.
  kCoherence,
};

const char* spec_text(Wire w) {
  return w == kMixed ? "drop=0.1,dup=0.05,delay=0.2:500"
                     : "drop=0.25,dup=0.4,delay=0.3:900,timeout=600,"
                       "classes=fill:invalidate:ts_check";
}

struct Golden {
  const char* bench;
  Coherence scheme;
  Wire wire;
  std::uint64_t fault_seed;
  Cycles makespan;
  std::uint64_t trace_fnv1a;
  Counters counters;
};

constexpr Coherence kL = Coherence::kLocalKnowledge;
constexpr Coherence kG = Coherence::kEagerGlobal;
constexpr Coherence kB = Coherence::kBilateral;

// clang-format off
const Golden kGolden[] = {
{"EM3D", kL, kMixed, 3, 1345931u, 12276253508931103722ull,
 {53384, 9220, 16400, 0, 1926, 0, 211, 1715, 0, 0,
  156, 4, 4080, 2620, 1460, 406, 280, 1464, 0, 0,
  0, 0, 0, 0, 0, 47, 3942, 434, 193, 857,
  399, 373, 325, 0, 0, 1715, 48, 156, 4, 120,
  3662, 0, 0, 35, 0, 24, 375, 0, 0, 10,
  0, 7, 176, 0, 0, 61, 3, 52, 741, 0,
  0, 33, 0, 23, 343, 0, 0, 1208, 28896}},
{"EM3D", kL, kMixed, 11, 1736822u, 14833205870781040785ull,
 {53384, 9220, 16400, 0, 1926, 0, 210, 1716, 0, 0,
  156, 4, 4080, 2620, 1460, 368, 280, 1458, 0, 0,
  0, 0, 0, 0, 0, 47, 3938, 464, 197, 886,
  424, 361, 307, 0, 0, 1716, 43, 156, 4, 120,
  3658, 0, 0, 33, 0, 10, 421, 0, 0, 5,
  0, 2, 190, 0, 0, 50, 3, 52, 781, 0,
  0, 32, 0, 10, 382, 0, 0, 1208, 28896}},
{"EM3D", kG, kMixed, 3, 1523809u, 9236454579597290286ull,
 {53384, 9220, 16400, 0, 1926, 0, 251, 1675, 0, 0,
  156, 4, 4080, 2654, 1426, 418, 0, 1358, 3118, 9220,
  0, 0, 0, 0, 0, 47, 6999, 1216, 354, 2165,
  1145, 875, 3928, 0, 0, 1675, 51, 156, 4, 120,
  3601, 3118, 0, 34, 1, 40, 405, 736, 0, 7,
  0, 5, 164, 178, 0, 53, 1, 50, 752, 1309,
  0, 33, 1, 38, 386, 687, 0, 1208, 28896}},
{"EM3D", kG, kMixed, 11, 1750435u, 8107690300053203174ull,
 {53384, 9220, 16400, 0, 1926, 0, 245, 1681, 0, 0,
  156, 4, 4080, 2649, 1431, 365, 0, 1358, 3159, 9220,
  0, 0, 0, 0, 0, 47, 7038, 1210, 418, 2211,
  1104, 895, 3983, 0, 0, 1681, 49, 156, 4, 120,
  3599, 3159, 0, 29, 0, 31, 416, 734, 0, 9,
  0, 5, 199, 205, 0, 65, 3, 46, 723, 1374,
  0, 25, 0, 28, 380, 671, 0, 1208, 28896}},
{"EM3D", kB, kMixed, 3, 2062757u, 8752302247283486469ull,
 {53384, 9220, 16400, 0, 1926, 0, 262, 1664, 1447, 49,
  156, 4, 4080, 2620, 1460, 314, 0, 1342, 0, 9220,
  0, 0, 0, 0, 0, 47, 6929, 758, 353, 1505,
  707, 649, 332, 0, 0, 3117, 104, 156, 4, 120,
  3556, 0, 3093, 36, 1, 37, 345, 0, 339, 9,
  0, 12, 173, 0, 159, 59, 1, 52, 767, 0,
  626, 34, 1, 34, 323, 0, 315, 1208, 28896}},
{"EM3D", kB, kMixed, 11, 1818136u, 2072991090347295277ull,
 {53384, 9220, 16400, 0, 1926, 0, 254, 1672, 1446, 41,
  156, 4, 4080, 2620, 1460, 322, 0, 1346, 0, 9220,
  0, 0, 0, 0, 0, 47, 6964, 788, 373, 1487,
  721, 674, 330, 0, 0, 3130, 95, 156, 4, 120,
  3578, 0, 3106, 35, 0, 32, 352, 0, 369, 11,
  0, 6, 196, 0, 160, 68, 3, 53, 738, 0,
  625, 31, 0, 30, 318, 0, 342, 1208, 28896}},
{"MST", kL, kMixed, 3, 12247611u, 17598794104259184422ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 671, 2898, 0, 0, 0,
  0, 0, 0, 0, 0, 0, 2898, 668, 165, 1242,
  630, 460, 3358, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 461, 40, 167, 0, 0, 0, 98,
  18, 49, 0, 0, 0, 839, 87, 316, 0, 0,
  0, 444, 36, 150, 0, 0, 0, 260, 4176}},
{"MST", kL, kMixed, 11, 12157860u, 14719162621004310453ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 681, 2898, 0, 0, 0,
  0, 0, 0, 0, 0, 0, 2898, 672, 159, 1271,
  628, 455, 3353, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 419, 53, 200, 0, 0, 0, 109,
  9, 41, 0, 0, 0, 840, 87, 344, 0, 0,
  0, 387, 48, 193, 0, 0, 0, 260, 4176}},
{"MST", kG, kMixed, 3, 12412935u, 14100528380883891621ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 668, 0, 0, 0, 5795,
  0, 0, 0, 0, 0, 0, 2898, 675, 165, 1224,
  632, 461, 3359, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 455, 45, 175, 0, 0, 0, 100,
  13, 52, 0, 0, 0, 821, 85, 318, 0, 0,
  0, 432, 42, 158, 0, 0, 0, 260, 4176}},
{"MST", kG, kMixed, 11, 12158924u, 8859719423317845424ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 668, 0, 0, 0, 5795,
  0, 0, 0, 0, 0, 0, 2898, 683, 151, 1253,
  638, 441, 3339, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 425, 43, 215, 0, 0, 0, 93,
  14, 44, 0, 0, 0, 815, 92, 346, 0, 0,
  0, 396, 38, 204, 0, 0, 0, 260, 4176}},
{"MST", kB, kMixed, 3, 12412935u, 14391065816073212072ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 668, 0, 0, 0, 5795,
  0, 0, 0, 0, 0, 0, 2898, 675, 165, 1224,
  632, 461, 3359, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 455, 45, 175, 0, 0, 0, 100,
  13, 52, 0, 0, 0, 821, 85, 318, 0, 0,
  0, 432, 42, 158, 0, 0, 0, 260, 4176}},
{"MST", kB, kMixed, 11, 12158924u, 18413727216463426451ull,
 {233120, 5795, 0, 0, 0, 0, 0, 0, 0, 0,
  1934, 193, 1028, 257, 771, 668, 0, 0, 0, 5795,
  0, 0, 0, 0, 0, 0, 2898, 683, 151, 1253,
  638, 441, 3339, 0, 0, 0, 0, 1934, 193, 771,
  0, 0, 0, 425, 43, 215, 0, 0, 0, 93,
  14, 44, 0, 0, 0, 815, 92, 346, 0, 0,
  0, 396, 38, 204, 0, 0, 0, 260, 4176}},
{"TreeAdd", kL, kMixed, 3, 264498u, 12020917085354990322ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 6, 12, 0, 0, 0,
  0, 0, 0, 0, 0, 0, 12, 3, 0, 4,
  3, 1, 13, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 0, 0, 3, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 1, 0, 3, 0, 0,
  0, 0, 0, 3, 0, 0, 0, 4095, 65520}},
{"TreeAdd", kL, kMixed, 11, 270668u, 3401553698984195533ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 5, 12, 0, 0, 0,
  0, 0, 0, 0, 0, 0, 12, 2, 0, 7,
  2, 0, 12, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 1, 0, 1, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 3, 0, 4, 0, 0,
  0, 1, 0, 1, 0, 0, 0, 4095, 65520}},
{"TreeAdd", kG, kMixed, 3, 286009u, 12354751746799761137ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 6, 0, 0, 0, 12285,
  0, 0, 0, 0, 0, 0, 12, 3, 0, 4,
  3, 1, 13, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 0, 0, 3, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 1, 0, 3, 0, 0,
  0, 0, 0, 3, 0, 0, 0, 4095, 65520}},
{"TreeAdd", kG, kMixed, 11, 292165u, 7192803294836625179ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 5, 0, 0, 0, 12285,
  0, 0, 0, 0, 0, 0, 12, 2, 0, 7,
  2, 0, 12, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 1, 0, 1, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 3, 0, 4, 0, 0,
  0, 1, 0, 1, 0, 0, 0, 4095, 65520}},
{"TreeAdd", kB, kMixed, 3, 286009u, 3370488414343872637ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 6, 0, 0, 0, 12285,
  0, 0, 0, 0, 0, 0, 12, 3, 0, 4,
  3, 1, 13, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 0, 0, 3, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 1, 0, 3, 0, 0,
  0, 0, 0, 3, 0, 0, 0, 4095, 65520}},
{"TreeAdd", kB, kMixed, 11, 292165u, 12560522244038475268ull,
 {12285, 12285, 0, 0, 0, 0, 0, 0, 0, 0,
  6, 0, 6142, 6136, 6, 5, 0, 0, 0, 12285,
  0, 0, 0, 0, 0, 0, 12, 2, 0, 7,
  2, 0, 12, 0, 0, 0, 0, 6, 0, 6,
  0, 0, 0, 1, 0, 1, 0, 0, 0, 0,
  0, 0, 0, 0, 0, 3, 0, 4, 0, 0,
  0, 1, 0, 1, 0, 0, 0, 4095, 65520}},
{"EM3D", kB, kCoherence, 3, 1130714u, 10389294122234803229ull,
 {53384, 9220, 16400, 0, 1926, 0, 247, 1679, 1455, 37,
  156, 4, 4080, 2620, 1460, 407, 0, 1342, 0, 9220,
  0, 0, 0, 0, 0, 47, 8139, 2355, 3750, 3225,
  1852, 3952, 560, 0, 0, 3150, 854, 156, 4, 120,
  4232, 0, 3627, 0, 0, 0, 1248, 0, 1107, 0,
  0, 0, 2041, 0, 1709, 0, 0, 0, 1752, 0,
  1473, 156, 4, 120, 837, 0, 735, 1208, 28896}},
};
// clang-format on

const char* scheme_name(Coherence c) {
  switch (c) {
    case Coherence::kLocalKnowledge: return "kL";
    case Coherence::kEagerGlobal: return "kG";
    case Coherence::kBilateral: return "kB";
    default: return "?";
  }
}

std::string row(const Golden& g) {
  std::string s = "{\"" + std::string(g.bench) + "\", " +
                  scheme_name(g.scheme) + ", " +
                  (g.wire == kMixed ? "kMixed" : "kCoherence") + ", " +
                  std::to_string(g.fault_seed) + ", " +
                  std::to_string(g.makespan) + "u, " +
                  std::to_string(g.trace_fnv1a) + "ull,\n {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i != 0) s += (i % 10 == 0) ? ",\n  " : ", ";
    s += std::to_string(g.counters[i]);
  }
  return s + "}},";
}

Golden run_case(const Golden& g) {
  const bench::Benchmark* b = bench::find_benchmark(g.bench);
  EXPECT_NE(b, nullptr) << g.bench;
  if (b == nullptr) return {};
  fault::FaultSpec spec;
  std::string err;
  EXPECT_TRUE(fault::parse_fault_spec(spec_text(g.wire), &spec, &err)) << err;
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.begin_run("fault-golden");
  bench::BenchConfig cfg{.nprocs = 4, .scheme = g.scheme};
  cfg.tiny = true;
  cfg.observer = &obs;
  cfg.faults = &spec;
  cfg.fault_seed = g.fault_seed;
  const bench::BenchResult r = b->run(cfg);
  Golden out = g;
  out.makespan = r.total_cycles;
  out.trace_fnv1a = fnv1a(trace::binary_trace_bytes(obs));
  out.counters = counters(r.stats);
  return out;
}

class FaultGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultGolden, MatchesPinnedRun) {
  const Golden& want = kGolden[GetParam()];
  const Golden got = run_case(want);
  const std::string actual = row(got);
  EXPECT_EQ(got.makespan, want.makespan) << "actual row:\n" << actual;
  EXPECT_EQ(got.trace_fnv1a, want.trace_fnv1a) << "actual row:\n" << actual;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(got.counters[i], want.counters[i])
        << "counter #" << i << "; actual row:\n"
        << actual;
  }
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  const Golden& g = kGolden[info.param];
  std::string name = g.bench;
  name += std::string("_") + scheme_name(g.scheme) +
          (g.wire == kMixed ? "_mixed_seed" : "_coherence_seed") +
          std::to_string(g.fault_seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Pinned, FaultGolden,
                         ::testing::Range<std::size_t>(0, std::size(kGolden)),
                         case_name);

TEST(FaultGoldenTable, CoversTheIntendedCases) {
  // The table pins all three schemes of EM3D, MST and TreeAdd at two fault
  // seeds on the mixed wire, plus one coherence-only storm in which
  // surplus replies were actually discarded.
  std::size_t mixed = 0;
  bool storm_had_surplus = false;
  for (const Golden& g : kGolden) {
    if (g.wire == kMixed) ++mixed;
    if (g.wire == kCoherence) {
      storm_had_surplus = g.counters[36] > 0;  // replies_ignored
    }
  }
  EXPECT_EQ(mixed, 18u);
  EXPECT_TRUE(storm_had_surplus);
}

}  // namespace
}  // namespace olden
