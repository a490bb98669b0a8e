// The one little-endian byte codec. Every binary format the project
// writes goes through it: the unicleand wire frames and bodies
// (serve/wire.h) and the .ucsnap snapshot header, section headers and
// payloads (snapshot/format.h).
//
// Encoding appends to a std::string: u8, u32 and u64 little-endian, and
// "lp" strings, a u32 byte length followed by the raw bytes.
//
// Decoding walks a std::string_view with a ByteReader. Every read is
// bounds-checked against the bytes that remain, so a truncated or
// length-forged buffer yields a Status, never an out-of-bounds read. The
// reader is built with the StatusCode a short read reports, because the
// two formats promise different codes: wire bodies fail with kCorruption
// (the cluster router treats it as a broken replica) and snapshot payloads
// with kDataLoss (the loader-hardening contract). Views the reader returns
// alias the buffer it reads.

#ifndef UNICLEAN_COMMON_BYTES_H_
#define UNICLEAN_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace uniclean {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Appends a length-prefixed string: u32 length, then the bytes.
inline void PutLp(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Sequential bounds-checked decoder over a byte buffer.
class ByteReader {
 public:
  /// `short_read` is the code every failed read reports.
  ByteReader(std::string_view data, StatusCode short_read)
      : data_(data), short_read_(short_read) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  Result<uint8_t> U8() { return Fixed<uint8_t>("u8"); }
  Result<uint32_t> U32() { return Fixed<uint32_t>("u32"); }
  Result<uint64_t> U64() { return Fixed<uint64_t>("u64"); }

  /// A length-prefixed string.
  Result<std::string_view> Lp() {
    UC_ASSIGN_OR_RETURN(uint32_t n, U32());
    return Take(n, "lp string");
  }

  /// `n` raw bytes under one bounds check: the bulk path for flat arrays,
  /// where a Result per 4-byte field would dominate the decode.
  Result<std::string_view> Raw(size_t n) { return Take(n, "raw block"); }

  /// Everything not yet consumed.
  std::string_view Rest() {
    std::string_view rest = data_.substr(pos_);
    pos_ = data_.size();
    return rest;
  }

 private:
  template <typename T>
  Result<T> Fixed(const char* what) {
    if (remaining() < sizeof(T)) return Short(what, sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  Result<std::string_view> Take(size_t n, const char* what) {
    if (remaining() < n) return Short(what, n);
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  Status Short(const char* what, size_t want) const {
    return Status(short_read_,
                  std::string("truncated ") + what + " at offset " +
                      std::to_string(pos_) + ": wants " +
                      std::to_string(want) + " bytes, " +
                      std::to_string(remaining()) + " remain");
  }

  std::string_view data_;
  size_t pos_ = 0;
  StatusCode short_read_;
};

}  // namespace uniclean

#endif  // UNICLEAN_COMMON_BYTES_H_
