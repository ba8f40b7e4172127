// Strict integer flag values for the example binaries.
#pragma once

#include <charconv>
#include <cstring>

namespace dpoaf::examples {

// The whole token must be a decimal integer that fits `T` (no sign for
// unsigned types), so "abc", "3x" or "-1" as a seed are usage errors
// instead of silently becoming 0 or wrapping.
template <typename T>
bool parse_integer(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace dpoaf::examples
