// The one number parser of the text readers (io/instance_io, io/trace_io,
// io/scenario_io) and util::Cli. A token is a number only as a whole: in
// range for T, finite for floating types, and for integers plain decimal
// digits with an optional '-' (signed types only) — no '+', fraction,
// exponent or hex. "3e4", "2.5", "0x10" and "7x" are not integers, "-1" is
// not unsigned, and "nan", "inf" and "1e999" are not doubles.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace chronus::util {

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// parse_number, or std::invalid_argument naming the text.
template <typename T>
T to_number(std::string_view text) {
  if (const auto value = parse_number<T>(text)) return *value;
  throw std::invalid_argument("bad number: " + std::string(text));
}

}  // namespace chronus::util
