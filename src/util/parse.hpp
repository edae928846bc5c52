// Strict parsing of integers that come from outside the process: command
// lines, environment knobs and trace files.
//
// One rule everywhere: the whole text is base-10 digits and nothing else —
// no sign, no whitespace, no trailing characters — and the value fits in 64
// bits.  Not strtoull: it skips leading whitespace, wraps "-1" to 2^64-1
// and stops silently at the first non-digit.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace unisamp {

/// The value of `text` under the strict rule above, or nullopt.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace unisamp
