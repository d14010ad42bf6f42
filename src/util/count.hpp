#pragma once
// Strict decimal counts: the one parser behind every "N" a user types —
// thread counts (threads:N, hetero:N), sedimentation block widths
// (block:N), service lanes (lanes=N) and positional grid sizes.

#include <string>
#include <string_view>

#include "util/error.hpp"

namespace wrf {

/// Parse `s` as a count: ASCII digits only (no sign, space, base prefix
/// or suffix) with a value in [1, 2^31 - 1].  Throws ConfigError
/// "<what>: '<s>' is not a count ..." otherwise, overflow included.
inline int parse_count(std::string_view s, std::string_view what) {
  constexpr long long kMax = 2147483647;
  long long v = 0;
  // Ten digits cannot overflow v; longer strings are rejected unread.
  bool ok = !s.empty() && s.size() <= 10;
  for (std::size_t i = 0; ok && i < s.size(); ++i) {
    ok = s[i] >= '0' && s[i] <= '9';
    if (ok) v = v * 10 + (s[i] - '0');
  }
  if (!ok || v < 1 || v > kMax) {
    throw ConfigError(std::string(what) + ": '" + std::string(s) +
                      "' is not a count (want digits only, 1 to " +
                      std::to_string(kMax) + ")");
  }
  return static_cast<int>(v);
}

}  // namespace wrf
