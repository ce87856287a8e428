#include "olden/trace/streaming_sink.hpp"

#include <cstring>

namespace olden::trace {

namespace {

/// Offset of the file-level u32 run count: magic(8) + version(4).
constexpr long kNumRunsOffset = 8 + 4;

}  // namespace

StreamingTraceSink::StreamingTraceSink(std::string path,
                                       std::size_t buffer_bytes)
    : path_(std::move(path)),
      // Always leave room for at least one record plus a run header.
      buffer_bytes_(buffer_bytes < 4096 ? 4096 : buffer_bytes) {
  buf_.reserve(buffer_bytes_);
  // "wb+" so the back-patch seeks can rewrite committed header bytes.
  file_ = std::fopen(path_.c_str(), "wb+");
  if (file_ == nullptr) {
    set_error("cannot open " + path_ + " for writing");
    return;
  }
  char header[sizeof kBinaryTraceMagic + 8];
  std::memcpy(header, kBinaryTraceMagic, sizeof kBinaryTraceMagic);
  store_u32le(header + 8, static_cast<std::uint32_t>(kBinaryTraceVersion));
  store_u32le(header + kNumRunsOffset, 0);  // run count, patched in finalize()
  buf_.append(header, sizeof header);
}

StreamingTraceSink::~StreamingTraceSink() { finalize(); }

void StreamingTraceSink::set_error(std::string what) {
  if (err_.empty()) err_ = std::move(what);
}

void StreamingTraceSink::flush() {
  if (buf_.empty() || file_ == nullptr || !err_.empty()) {
    buf_.clear();
    return;
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
    set_error("short write to " + path_);
  }
  written_ += buf_.size();
  buf_.clear();
}

void StreamingTraceSink::patch(long off, const char* bytes, std::size_t n) {
  if (file_ == nullptr || !err_.empty()) return;
  flush();
  if (!err_.empty()) return;
  if (std::fseek(file_, off, SEEK_SET) != 0 ||
      std::fwrite(bytes, 1, n, file_) != n ||
      std::fseek(file_, 0, SEEK_END) != 0) {
    set_error("back-patch failed in " + path_);
  }
}

void StreamingTraceSink::begin_run(const std::string& label, ProcId nprocs) {
  if (finalized_) {
    set_error("begin_run after finalize");
    return;
  }
  if (run_open_) {
    set_error("begin_run with a run still open");
    return;
  }
  run_open_ = true;
  run_events_ = 0;
  ++runs_begun_;
  char len[4];
  store_u32le(len, static_cast<std::uint32_t>(label.size()));
  buf_.append(len, sizeof len);
  buf_ += label;
  // nprocs, then makespan / events_dropped / event count as zero
  // placeholders that end_run() back-patches.
  char tail[4 + 24] = {};
  store_u32le(tail, nprocs);
  run_patch_off_ = written_ + buf_.size() + 4;
  buf_.append(tail, sizeof tail);
}

void StreamingTraceSink::end_run(Cycles makespan,
                                 std::uint64_t events_dropped) {
  if (!run_open_) {
    set_error("end_run with no run open");
    return;
  }
  run_open_ = false;
  char bytes[24];
  store_u64le(bytes, makespan);
  store_u64le(bytes + 8, events_dropped);
  store_u64le(bytes + 16, run_events_);
  patch(static_cast<long>(run_patch_off_), bytes, sizeof bytes);
}

bool StreamingTraceSink::finalize(std::string* err) {
  if (!finalized_) {
    finalized_ = true;
    if (run_open_) set_error("finalize with a run still open");
    char bytes[4];
    store_u32le(bytes, runs_begun_);
    patch(kNumRunsOffset, bytes, sizeof bytes);
    if (file_ != nullptr) {
      if (std::fflush(file_) != 0) set_error("flush failed for " + path_);
      if (std::fclose(file_) != 0) set_error("close failed for " + path_);
      file_ = nullptr;
    }
  }
  if (!err_.empty() && err != nullptr) *err = err_;
  return err_.empty();
}

}  // namespace olden::trace
