// Checked whole-file output, shared by the observability exporters and
// olden-analyze.
#pragma once

#include <cstdio>
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

}  // namespace olden
