#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace uniclean {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseNumber(std::string_view s, int* out) { return ParseWhole(s, out); }

bool ParseNumber(std::string_view s, uint64_t* out) {
  return ParseWhole(s, out);
}

bool ParseNumber(std::string_view s, double* out) {
  double v = 0.0;
  if (!ParseWhole(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace uniclean
