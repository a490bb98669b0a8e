// Small string helpers shared across modules.

#ifndef UNICLEAN_COMMON_STRING_UTIL_H_
#define UNICLEAN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace uniclean {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a delimiter string.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Escapes `s` for use inside a JSON string literal: quote, backslash and
/// every control byte below 0x20 (\n, \r, \t by name, the rest as \u00XX).
/// Bytes from 0x20 up pass through unchanged.
std::string JsonEscape(std::string_view s);

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_STRING_UTIL_H_
