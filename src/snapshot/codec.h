// snapshot::Codec: the (de)serialization of engine internals — the one
// class the data/similarity/core layers befriend so their private built
// state (equality indexes, the Ukkonen suffix tree with its precomputed
// leaf slices, memo contents) can round-trip through a snapshot file
// without widening their public APIs.
//
// Split of labor with snapshot.h: the codec knows *payload layouts* and the
// engine's internals; snapshot.h owns the container (header, section table,
// CRCs) and policy (what mismatch refuses a load). On the read side every
// codec function revalidates what it installs — node/child indices, tuple
// ids, value ids, slice bounds — against the live engine's extents, so a
// forged payload that passed its CRC still cannot plant an out-of-range
// index that a later probe would walk off (the UC_CHECKs in the hot paths
// would abort; the codec returns kDataLoss instead).
//
// What is NOT serialized is deliberate: everything cheaply derivable from
// the engine's sources re-derives on load (clause roles, value_owners_, the
// tree's text/boundaries from the master relation), which both shrinks the
// file and shrinks the forgeable surface. What IS serialized verbatim is
// exactly the state whose recomputation is either expensive (tree nodes) or
// order-sensitive in a way recomputation cannot reproduce: the preorder
// leaf arrays fix the candidate order TopL's truncation sees, and that
// order came from unordered_map iteration during the original build — a
// re-run DFS over deserialized maps could legally pick different leaves and
// silently change journals.

#ifndef UNICLEAN_SNAPSHOT_CODEC_H_
#define UNICLEAN_SNAPSHOT_CODEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "snapshot/format.h"

namespace uniclean {
namespace snapshot {

/// A matcher or memo section paired with the MD rule id it belongs to.
struct RuleSection {
  uint32_t rule_id = 0;
  std::string_view payload;
};

class Codec {
 public:
  // --- write side (engine must be warm and quiesced) ------------------------

  /// Environment-level counts: rule count, matcher count, master size.
  static void AppendEnvironment(const core::MatchEnvironment& env,
                                std::string* out);

  /// One matcher's built index: the equality index, or the suffix tree with
  /// its leaf slices, or nothing (brute-force / empty premise). Entries are
  /// emitted in sorted order so identical engines write identical bytes.
  static void AppendMatcher(const core::MdMatcher& matcher, std::string* out);

  /// One matcher's memo contents (match lists, blocking candidates,
  /// per-clause similarity outcomes). Entries referencing value ids >=
  /// `pool_limit` (interned after the header's generation was captured) are
  /// skipped — they could not be resolved by a loader. Entry order is
  /// unspecified (sharded maps), so memo sections are the one part of a
  /// snapshot whose bytes are not deterministic.
  static void AppendMemos(const core::MdMatcher& matcher, uint64_t pool_limit,
                          std::string* out);

  // --- read side ------------------------------------------------------------

  /// Rebuilds a MatchEnvironment from parsed snapshot sections against an
  /// engine's live rules/master (the string pool must already hold the
  /// snapshot's generation — see snapshot.h load order). Returns kDataLoss
  /// when a payload is structurally inconsistent with the engine (missing
  /// or surplus matcher sections, out-of-range indices, count mismatches).
  static Result<std::unique_ptr<core::MatchEnvironment>> RestoreEnvironment(
      const rules::RuleSet& rules, const data::Relation& master,
      const core::MdMatcherOptions& options, std::string_view env_payload,
      const std::vector<RuleSection>& matcher_sections,
      const std::vector<RuleSection>& memo_sections);

 private:
  static void AppendTree(const similarity::GeneralizedSuffixTree& tree,
                         std::string* out);
  static Status RestoreMatcher(core::MdMatcher* matcher,
                               std::string_view payload);
  static Status RestoreTree(core::MdMatcher* matcher, ByteReader* reader);
  static Status RestoreMemos(core::MdMatcher* matcher,
                             std::string_view payload);
};

}  // namespace snapshot
}  // namespace uniclean

#endif  // UNICLEAN_SNAPSHOT_CODEC_H_
