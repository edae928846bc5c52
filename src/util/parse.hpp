// Strict parsing of numbers that come from outside the process: command
// lines, environment knobs and trace files.
//
// One rule everywhere: the whole text is one number and nothing else — no
// whitespace, no '+', no trailing characters — and the value is
// representable.  Not strtoull/strtod: they skip leading whitespace, wrap
// "-1" to 2^64-1, read "nan" and "inf", and stop silently at the first
// character they cannot use.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace unisamp {

/// The value of `text` under the strict rule above, or nullopt.  Base-10
/// digits only (no sign), and the value fits in 64 bits.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// The value of `text` under the strict rule above, or nullopt.  A decimal
/// or scientific number with an optional leading '-' ("0.5", "-2", "1e-3"),
/// finite: "nan", "inf" and out-of-range exponents are rejected.
inline std::optional<double> parse_f64(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

}  // namespace unisamp
