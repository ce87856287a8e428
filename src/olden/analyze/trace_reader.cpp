#include "olden/analyze/trace_reader.hpp"

#include <cstdio>
#include <cstring>

#include "olden/trace/observer.hpp"
#include "olden/trace/record_codec.hpp"

namespace olden::analyze {

using trace::load_u32le;
using trace::load_u64le;

TraceStream::~TraceStream() {
  if (file_ != nullptr) std::fclose(file_);
}

bool TraceStream::fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = path_.empty() ? msg : path_ + ": " + msg;
  return false;
}

bool TraceStream::read(void* dst, std::uint64_t n) {
  if (n > file_size_ - pos_) return false;
  if (file_ != nullptr) {
    const bool ok =
        dst == nullptr
            ? std::fseek(file_, static_cast<long>(n), SEEK_CUR) == 0
            : std::fread(dst, 1, n, file_) == n;
    if (!ok) return false;
  } else if (dst != nullptr && n > 0) {
    std::memcpy(dst, bytes_.data() + pos_, n);
  }
  pos_ += n;
  return true;
}

bool TraceStream::open(const std::string& path, std::string* err) {
  if (opened_) return fail(err, "stream already open");
  opened_ = true;
  path_ = path;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    path_.clear();
    return fail(err, "cannot open " + path);
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) return fail(err, "seek failed");
  const long end = std::ftell(file_);
  if (end < 0) return fail(err, "seek failed");
  file_size_ = static_cast<std::uint64_t>(end);
  if (std::fseek(file_, 0, SEEK_SET) != 0) return fail(err, "seek failed");
  return read_header(err);
}

bool TraceStream::open_bytes(std::string_view bytes, std::string* err) {
  if (opened_) return fail(err, "stream already open");
  opened_ = true;
  bytes_ = bytes;
  file_size_ = bytes.size();
  return read_header(err);
}

bool TraceStream::read_header(std::string* err) {
  char magic[8];
  if (!read(magic, 8)) return fail(err, "trace too short for magic");
  if (std::memcmp(magic, trace::kBinaryTraceMagicV1, 8) == 0) {
    return fail(err,
                "binary trace is format v1 (OLDNTRC1); this analyzer "
                "requires v2 (OLDNTRC2) — regenerate the trace with a "
                "current bench binary");
  }
  if (std::memcmp(magic, trace::kBinaryTraceMagic, 8) != 0) {
    return fail(err, "not an Olden binary trace (bad magic)");
  }
  char hdr[8];
  if (!read(hdr, 8)) return fail(err, "truncated trace header");
  const std::uint32_t version = load_u32le(hdr);
  num_runs_ = load_u32le(hdr + 4);
  if (version != static_cast<std::uint32_t>(trace::kBinaryTraceVersion)) {
    return fail(err, "unsupported binary trace version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(trace::kBinaryTraceVersion) + ")");
  }
  // A run header is at least 32 bytes (label length + nprocs + makespan +
  // dropped + event count), so a run count the file cannot hold is
  // corruption.
  if (num_runs_ > (file_size_ - pos_) / 32) {
    return fail(err, "run count " + std::to_string(num_runs_) +
                         " exceeds file size (v" + std::to_string(version) +
                         " header corrupt?)");
  }
  version_ = static_cast<int>(version);
  return true;
}

bool TraceStream::next_run(TraceRun* run, std::string* err) {
  if (err != nullptr) err->clear();
  if (version_ == 0) return fail(err, "stream not open");
  if (run_events_left_ > 0) {
    // Caller moved on without draining the events: skip past them.
    if (!read(nullptr, run_events_left_ * trace::kBinaryRecordBytes)) {
      return fail(err, "seek failed");
    }
    run_events_left_ = 0;
  }
  if (runs_delivered_ >= num_runs_) {
    // A clean end of file must land exactly on the file size, or the
    // back-patched header under-claims what was written (the sink
    // back-patches run/event counts at finalize; a crash, or a copy taken
    // mid-write, leaves zeroed counts with the records still present).
    if (pos_ != file_size_) {
      return fail(err,
                  "v" + std::to_string(version_) + " header declares " +
                      std::to_string(num_runs_) + " run(s) but " +
                      std::to_string(file_size_ - pos_) +
                      " byte(s) follow the last declared record — header "
                      "counts disagree with records present (unfinalized "
                      "streaming trace?)");
    }
    return false;  // clean end of file
  }
  const std::string rno = std::to_string(runs_delivered_);

  char lenb[4];
  if (!read(lenb, 4)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }
  const std::uint32_t label_len = load_u32le(lenb);
  if (label_len > file_size_ - pos_) {
    return fail(err, "run label length " + std::to_string(label_len) +
                         " exceeds file size (run " + rno + ")");
  }
  run->label.resize(label_len);
  if (!read(run->label.data(), label_len)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }

  char tail[4 + 8 + 8 + 8];
  if (!read(tail, sizeof tail)) {
    return fail(err, "truncated run header (run " + rno + ")");
  }
  const std::uint32_t nprocs = load_u32le(tail);
  run->makespan = load_u64le(tail + 4);
  run->events_dropped = load_u64le(tail + 12);
  const std::uint64_t nevents = load_u64le(tail + 20);
  // The simulator never runs more than kMaxProcs processors; a larger
  // value is corruption, and passing it through would size analysis
  // arrays (per-processor chains) from attacker-controlled bytes.
  if (nprocs == 0 || nprocs > kMaxProcs) {
    return fail(err, "implausible processor count " + std::to_string(nprocs) +
                         " (run " + rno + ", max " + std::to_string(kMaxProcs) +
                         ")");
  }
  run->nprocs = static_cast<ProcId>(nprocs);
  if (nevents > (file_size_ - pos_) / trace::kBinaryRecordBytes) {
    return fail(err, "event count exceeds file size (run " + rno + ")");
  }
  run->num_events = nevents;
  run_events_left_ = nevents;
  ++runs_delivered_;
  return true;
}

bool TraceStream::next_events(std::vector<trace::TraceEvent>* batch,
                              std::size_t max, std::string* err) {
  if (err != nullptr) err->clear();
  if (version_ == 0 || run_events_left_ == 0 || max == 0) {
    batch->clear();
    if (version_ == 0) return fail(err, "stream not open");
    return false;  // run exhausted
  }

  const std::size_t want = static_cast<std::size_t>(
      max < run_events_left_ ? max : run_events_left_);
  // The records are read straight into the batch's storage and decoded
  // there, back to front: an event (72 bytes) is wider than its record
  // (68), so slot i starts at or past record i and overlaps only records
  // after it, which are already decoded.
  static_assert(sizeof(trace::TraceEvent) >= trace::kBinaryRecordBytes);
  batch->resize(want);
  char* raw = reinterpret_cast<char*>(batch->data());
  if (!read(raw, want * trace::kBinaryRecordBytes)) {
    batch->clear();
    return fail(err, "truncated event record");
  }
  run_events_left_ -= want;

  // A refused record leaves the records before it in *batch.
  std::size_t valid = want;
  std::uint8_t bad_kind = 0;
  trace::TraceEvent* out = batch->data();
  for (std::size_t i = want; i-- > 0;) {
    trace::TraceEvent e;
    const std::uint8_t kind =
        trace::decode_record(raw + i * trace::kBinaryRecordBytes, &e);
    if (kind >= trace::kNumEventKinds) {
      valid = i;
      bad_kind = kind;
      continue;
    }
    e.kind = static_cast<trace::EventKind>(kind);
    out[i] = e;
  }
  if (valid < want) {
    batch->resize(valid);
    return fail(err, "event record with out-of-range kind " +
                         std::to_string(bad_kind));
  }
  return true;
}

}  // namespace olden::analyze
