// JsonWriter: the one JSON renderer (the daemon's STATS and request log, the
// merged cluster STATS, BENCH_pipeline.json). It places every quote,
// separator and bracket, escapes every string and does not check call order.
// The layout is fixed, and `"key": value` text scanners rely on it: members
// and array elements are joined by ", ", and an object that is an array
// element starts on a new line. Pretty-print with `python3 -m json.tool`.

#ifndef UNICLEAN_COMMON_JSON_H_
#define UNICLEAN_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace uniclean {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Separate(/*is_object=*/true).Put("{"); }
  JsonWriter& EndObject() { return Put("}"); }
  JsonWriter& BeginArray() { return Separate(/*is_object=*/false).Put("["); }
  JsonWriter& EndArray() { return Put("]"); }

  /// Starts a member of the enclosing object; the next call is its value.
  JsonWriter& Key(std::string_view key) {
    if (out_.back() != '{') out_ += ", ";
    JsonEscape(key);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Separate(/*is_object=*/false).JsonEscape(v);
    return *this;
  }
  JsonWriter& Int(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Uint(uint64_t v) { return Raw(std::to_string(v)); }
  /// `v` with `decimals` digits after the point ("%.*f"); null for a NaN or
  /// an infinity, which JSON cannot spell.
  JsonWriter& Double(double v, int decimals) {
    if (!std::isfinite(v)) return Null();
    char buf[400];  // a finite double in %f has at most 309 integer digits
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return Raw(buf);
  }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  /// Writes `json`, an already rendered JSON value, verbatim.
  JsonWriter& Raw(std::string_view json) {
    return Separate(/*is_object=*/false).Put(json);
  }

  /// The document rendered so far.
  const std::string& str() const { return out_; }

 private:
  // Writes what precedes a value: nothing after a Key() or at the top level;
  // in an array ", " after an element (a value never ends in '[') and a
  // newline before an object.
  JsonWriter& Separate(bool is_object) {
    if (!after_key_ && !out_.empty()) {
      if (out_.back() != '[') out_ += is_object ? "," : ", ";
      if (is_object) out_ += '\n';
    }
    after_key_ = false;
    return *this;
  }

  JsonWriter& Put(std::string_view text) {
    out_ += text;
    return *this;
  }

  // Appends `s` as a JSON string literal: quote, backslash and every control
  // byte below 0x20 are escaped (\n, \r, \t by name, the rest as \u00XX);
  // bytes from 0x20 up pass through unchanged.
  void JsonEscape(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (c == '\n') {
        out_ += "\\n";
      } else if (c == '\r') {
        out_ += "\\r";
      } else if (c == '\t') {
        out_ += "\\t";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool after_key_ = false;
};

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_JSON_H_
