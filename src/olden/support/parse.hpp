// Strict parsing of numeric command-line values, shared by the bench
// binaries' observability flags and olden-analyze.
#pragma once

#include <cstdint>
#include <string_view>

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

}  // namespace olden
