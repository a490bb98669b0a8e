// Small string helpers shared across modules.

#ifndef UNICLEAN_COMMON_STRING_UTIL_H_
#define UNICLEAN_COMMON_STRING_UTIL_H_

#include <cstdint>
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

/// Strict decimal number parses for flags, spec files and id lists: the
/// whole of `s` must be one in-range number of the target type. Empty
/// input, surrounding whitespace, a '+' sign, trailing junk, overflow, a
/// '-' on the unsigned form and a non-finite double all fail. On failure
/// `*out` is left untouched.
bool ParseNumber(std::string_view s, int* out);
bool ParseNumber(std::string_view s, uint64_t* out);
bool ParseNumber(std::string_view s, double* out);

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_STRING_UTIL_H_
