// The uniclean snapshot container format (".ucsnap"): the byte-level half
// of src/snapshot/. A snapshot is one file:
//
//   header (64 bytes, CRC-protected)
//     0   8   magic "UCSNAPSH"
//     8   u32 format version (kFormatVersion)
//     12  u32 flags (kFlagHasMemos)
//     16  u64 CleanEngine::Fingerprint() of the writing engine
//     24  u32 MdMatcherOptions::top_l
//     28  u32 matcher flags (kMatcherUseBlocking | kMatcherUseMemos)
//     32  u64 MdMatcherOptions::memo_capacity
//     40  u64 string-pool generation count (ids serialized)
//     48  u64 string-pool generation hash (StringPool::PrefixHash)
//     56  u32 section count
//     60  u32 CRC-32C of bytes [0, 60)
//   sections, back to back, each:
//     u32 section id (SectionId)
//     u32 rule id the section belongs to, or kNoRule
//     u64 payload length
//     u32 CRC-32C of the payload
//     payload bytes
//
// All integers are little-endian. Every header field and every value inside
// a payload goes through the shared codec in common/bytes.h, and every read
// is a ByteReader built with StatusCode::kDataLoss: a truncated,
// bit-flipped or length-forged file yields a structured Status::DataLoss,
// never an out-of-bounds access or an abort — the loader hardening contract
// tested by snapshot_test's corruption matrix. Payload layouts live in
// codec.h; policy (what gets refused when) in snapshot.h.

#ifndef UNICLEAN_SNAPSHOT_FORMAT_H_
#define UNICLEAN_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"

namespace uniclean {
namespace snapshot {

inline constexpr char kMagic[8] = {'U', 'C', 'S', 'N', 'A', 'P', 'S', 'H'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kSectionHeaderBytes = 20;

/// Header flags.
inline constexpr uint32_t kFlagHasMemos = 1u << 0;
/// Matcher-option flags (header offset 28).
inline constexpr uint32_t kMatcherUseBlocking = 1u << 0;
inline constexpr uint32_t kMatcherUseMemos = 1u << 1;

/// Section ids. A reader skips unknown ids (forward compatibility: a newer
/// writer may append new section kinds), but unknown *required* state can
/// only be added with a version bump.
enum class SectionId : uint32_t {
  kStringPool = 1,   // one per file; must precede use of any interned id
  kEnvironment = 2,  // one per file: environment-level counts
  kMatcher = 3,      // one per MD rule id
  kMemos = 4,        // optional, one per MD rule id (kFlagHasMemos)
};

/// `rule_id` value for sections not owned by a rule.
inline constexpr uint32_t kNoRule = 0xFFFFFFFFu;

/// CRC-32C (Castagnoli polynomial, reflected) of `n` bytes. Chosen over the
/// IEEE polynomial because SSE4.2 computes it in hardware, and a warm start
/// checksums the whole file.
uint32_t Crc32(const void* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

// --- header -----------------------------------------------------------------

struct Header {
  uint32_t version = kFormatVersion;
  uint32_t flags = 0;
  uint64_t engine_fingerprint = 0;
  uint32_t matcher_top_l = 0;
  uint32_t matcher_flags = 0;
  uint64_t memo_capacity = 0;
  uint64_t pool_count = 0;
  uint64_t pool_hash = 0;
  uint32_t section_count = 0;
};

/// Appends the encoded 64-byte header (with its CRC) to `out`.
void EncodeHeader(const Header& header, std::string* out);

/// Decodes and validates the header at the start of `file`: size, magic
/// (kDataLoss), header CRC (kDataLoss), then version (kFailedPrecondition —
/// the file may be fine, this build just cannot read it).
Result<Header> DecodeHeader(std::string_view file);

// --- sections ---------------------------------------------------------------

struct SectionHeader {
  uint32_t id = 0;
  uint32_t rule_id = kNoRule;
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Appends the 20-byte section header to `out`.
void EncodeSectionHeader(const SectionHeader& section, std::string* out);

/// Decodes the section header at `file[offset...]`; kDataLoss when fewer
/// than kSectionHeaderBytes remain.
Result<SectionHeader> DecodeSectionHeader(std::string_view file,
                                          size_t offset);

}  // namespace snapshot
}  // namespace uniclean

#endif  // UNICLEAN_SNAPSHOT_FORMAT_H_
