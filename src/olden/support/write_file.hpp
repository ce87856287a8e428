// Checked file output and input, shared by the observability exporters,
// the document readers, bench_cell and olden-analyze.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace olden {

/// Write `body` to `path`, replacing the file. Both the write and the
/// close are checked: a small body sits in the stdio buffer until fclose,
/// so a full disk surfaces only there. On failure sets *err (when
/// non-null) and returns false.
inline bool write_file(const std::string& path, std::string_view body,
                       std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!(wrote && closed) && err != nullptr) *err = "short write to " + path;
  return wrote && closed;
}

/// Read the whole of `path` into *out. On failure sets *err (when
/// non-null) to a message that does not name the file, so the caller names
/// it once, and returns false.
inline bool read_file(const std::string& path, std::string* out,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = std::string("cannot open: ") + std::strerror(errno);
    }
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok && err != nullptr) *err = "read error";
  return read_ok;
}

/// Flush stdout and check that everything printed to it arrived. A report
/// written to a full disk or a closed pipe fails only here, so a CLI calls
/// this before exiting 0. On failure names `prog` on stderr.
inline bool flush_stdout(const char* prog) {
  if (std::fflush(stdout) == 0 && std::ferror(stdout) == 0) return true;
  std::fprintf(stderr, "%s: cannot write to stdout\n", prog);
  return false;
}

}  // namespace olden
