// Adversarial inputs for the binary-trace reader: truncations at every
// byte boundary, corrupt header lengths, absurd processor / run / event
// counts, wrong versions. Every case must fail with a descriptive error —
// never crash, over-read, or attempt a corrupt-count-sized allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "analyze_helpers.hpp"
#include "olden/analyze/trace_reader.hpp"
#include "olden/bench/benchmark.hpp"
#include "olden/trace/observer.hpp"

namespace olden::analyze {
namespace {

using test_util::read_trace;
using test_util::ReadTrace;

/// A small but real trace: one TreeAdd run with events. The event limit
/// keeps the file a few KB so the every-prefix truncation sweep (O(n^2))
/// stays cheap even under sanitizers.
std::string valid_trace_bytes() {
  const bench::Benchmark* b = bench::find_benchmark("TreeAdd");
  EXPECT_NE(b, nullptr);
  trace::Observer obs;
  obs.set_trace_enabled(true);
  obs.set_event_limit(64);
  obs.begin_run("adv");
  bench::BenchConfig cfg{.nprocs = 2};
  cfg.tiny = true;
  cfg.observer = &obs;
  (void)b->run(cfg);
  return trace::binary_trace_bytes(obs);
}

void poke_u32(std::string* bytes, std::size_t off, std::uint32_t v) {
  ASSERT_LE(off + 4, bytes->size());
  for (int i = 0; i < 4; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void poke_u64(std::string* bytes, std::size_t off, std::uint64_t v) {
  ASSERT_LE(off + 8, bytes->size());
  for (int i = 0; i < 8; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Layout after the 8-byte magic: version u32 @8, nruns u32 @12, then per
// run: label_len u32 @16, label bytes, nprocs u32, makespan u64,
// dropped u64, nevents u64, then fixed-size event records
// (trace::kBinaryRecordBytes each).
constexpr std::size_t kVersionOff = 8;
constexpr std::size_t kNrunsOff = 12;
constexpr std::size_t kLabelLenOff = 16;
constexpr std::size_t kLabelLen = 3;  // "adv"
constexpr std::size_t kNprocsOff = kLabelLenOff + 4 + kLabelLen;
constexpr std::size_t kNeventsOff = kNprocsOff + 4 + 8 + 8;

TEST(TraceReaderRobustness, ParsesItsOwnOutput) {
  const std::string bytes = valid_trace_bytes();
  ReadTrace f;
  std::string err;
  ASSERT_TRUE(read_trace(bytes, &f, &err)) << err;
  ASSERT_EQ(f.file.runs.size(), 1u);
  EXPECT_EQ(f.file.runs[0].label, "adv");
  EXPECT_EQ(f.file.runs[0].nprocs, 2u);
  EXPECT_FALSE(f.events[0].empty());
}

TEST(TraceReaderRobustness, EveryTruncationFailsCleanly) {
  const std::string bytes = valid_trace_bytes();
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ReadTrace f;
    std::string err;
    EXPECT_FALSE(
        read_trace(std::string_view(bytes).substr(0, len), &f, &err))
        << "a " << len << "-byte prefix parsed as complete";
    EXPECT_FALSE(err.empty()) << len;
  }
}

TEST(TraceReaderRobustness, AbsurdRunCountIsRejectedBeforeAllocating) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kNrunsOff, 0xffffffffu);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("run count"), std::string::npos) << err;
  EXPECT_NE(err.find("exceeds file size"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, CorruptLabelLengthIsRejected) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kLabelLenOff, 0xfffffff0u);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("label length"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, AbsurdProcessorCountIsRejected) {
  for (std::uint32_t nprocs : {0u, 65u, 0xffffffffu}) {
    std::string bytes = valid_trace_bytes();
    poke_u32(&bytes, kNprocsOff, nprocs);
    ReadTrace f;
    std::string err;
    EXPECT_FALSE(read_trace(bytes, &f, &err)) << nprocs;
    EXPECT_NE(err.find("processor count"), std::string::npos) << err;
  }
}

TEST(TraceReaderRobustness, AbsurdEventCountIsRejected) {
  std::string bytes = valid_trace_bytes();
  poke_u64(&bytes, kNeventsOff, 0xffffffffffffffffULL);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("event count exceeds file size"), std::string::npos)
      << err;
}

TEST(TraceReaderRobustness, WrongVersionNamesBothVersions) {
  std::string bytes = valid_trace_bytes();
  poke_u32(&bytes, kVersionOff, 99);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("99"), std::string::npos) << err;
  EXPECT_NE(err.find(std::to_string(trace::kBinaryTraceVersion)),
            std::string::npos)
      << err;
}

TEST(TraceReaderRobustness, V1MagicGetsTheMigrationHint) {
  std::string bytes = valid_trace_bytes();
  std::memcpy(bytes.data(), trace::kBinaryTraceMagicV1, 8);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("OLDNTRC2"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, GarbageMagicIsRejected) {
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace("GARBAGE!plus some trailing bytes", &f,
                                  &err));
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(TraceReaderRobustness, OutOfRangeEventKindIsRejected) {
  std::string bytes = valid_trace_bytes();
  // First event record starts right after the run header; kind is the
  // 13th byte of the record (time u64 + proc u32 precede it... time u64,
  // proc u32, thread u64, then kind u8).
  const std::size_t first_record = kNeventsOff + 8;
  const std::size_t kind_off = first_record + 8 + 4 + 8;
  ASSERT_LT(kind_off, bytes.size());
  bytes[kind_off] = static_cast<char>(0xff);
  ReadTrace f;
  std::string err;
  EXPECT_FALSE(read_trace(bytes, &f, &err));
  EXPECT_NE(err.find("out-of-range kind"), std::string::npos) << err;
}

}  // namespace
}  // namespace olden::analyze
