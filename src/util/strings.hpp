// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hlts {

/// Concatenates `parts` by appending them to one string:
/// cat("N", std::to_string(3)) == "N3".  Prefer it to `"literal" +
/// std::string`, which inserts the literal at the front of the right-hand
/// string and trips GCC 12's -Wrestrict false positive in optimized builds.
template <typename... Parts>
[[nodiscard]] std::string cat(const Parts&... parts) {
  std::string out;
  out.reserve((std::string_view(parts).size() + ...));
  (out.append(std::string_view(parts)), ...);
  return out;
}

/// Joins `parts` with `sep`: join({"a","b"}, ", ") == "a, b".
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// Formats `value` with `digits` digits after the decimal point.
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Formats a fraction as a percentage string, e.g. 0.9066 -> "90.66%".
[[nodiscard]] std::string format_percent(double fraction, int digits = 2);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(const std::string& s, const std::string& prefix);

/// Left-pads or truncates `s` to exactly `width` characters.
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);

}  // namespace hlts
