// Command-line parsing shared by the bench binaries and olden-analyze:
// "--NAME=value" matching, comma lists and strict numeric values.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace olden {

/// Strict non-negative integer parse: every character must be a digit and
/// the value must fit in 64 bits. "abc", "-3", "1e6", "" all fail — a
/// malformed limit or seed should be a loud error, not a silent zero.
[[nodiscard]] inline bool parse_u64_strict(std::string_view s,
                                           std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

/// Matches "--NAME=value" exactly (so "--trace" never swallows
/// "--trace-bin"). Returns the value through `out`.
[[nodiscard]] inline bool flag_value(const char* arg, const char* name,
                                     std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

/// "a,b,,c" -> {"a", "b", "", "c"}; empty items are kept so the caller
/// rejects them by name.
inline std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace olden
