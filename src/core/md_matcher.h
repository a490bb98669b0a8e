// MdMatcher: finds the master tuples whose MD premise holds with a data
// tuple. Equality clauses use a hash index on the master projection (keyed
// on interned value ids); when an MD has only similarity clauses, the §5.2
// suffix-tree blocking retrieves the top-l master values by longest common
// substring and only those candidates are verified — reducing the per-tuple
// cost from O(|Dm|) to O(l). Candidates are verified by evaluating the
// premise directly; the one memo is the match list per premise projection
// (see Matches()). A brute-force mode exists for the blocking ablation
// bench.
//
// The indexes are built once, in the constructor, over the master relation
// as it is then; the master must not change for the matcher's lifetime.
//
// Thread safety: after construction the indexes are immutable and the memo
// is sharded behind striped locks (see core/sharded_memo.h), so any number
// of threads may call Matches / FindMatches / FindFirstMatch concurrently —
// the engine entry point concurrent uniclean::Session runs rely on. Every
// memoized result is a pure function of its key over the static master
// data, so cache sharing across threads cannot change outcomes. References
// returned by Matches() stay valid for the matcher's lifetime when they
// point into the memo; results that were refused admission (capacity cap,
// or use_memos = false) live in per-(thread, matcher) scratch valid until
// the same thread's next probe of the same matcher.

#ifndef UNICLEAN_CORE_MD_MATCHER_H_
#define UNICLEAN_CORE_MD_MATCHER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/sharded_memo.h"
#include "data/group_key.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "rules/md.h"
#include "similarity/suffix_tree.h"

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: persists the matcher's built indexes
}  // namespace snapshot
namespace core {

struct MdMatcherOptions {
  /// Candidates retrieved per similarity probe ("we find that l <= 20
  /// typically suffices", §5.2).
  int top_l = 20;
  /// When false, every master tuple is verified (ablation baseline).
  bool use_blocking = true;
  /// When false, the match-list memo is bypassed and every probe pays its
  /// full cost. Only the ablation benches turn this off, so they measure
  /// per-probe match cost rather than cache hits.
  bool use_memos = true;
  /// Caps the resident entries of the match-list memo; 0 = unbounded. Past
  /// the cap new results are still computed but refused admission (counted
  /// as MemoStats::evictions), so handed-out references never dangle and a
  /// long-lived serving session's memory stops growing. See ROADMAP "memo
  /// growth in long-lived sessions".
  size_t memo_capacity = 0;
};

class MdMatcher {
 public:
  /// Builds the index for one normalized MD over the master relation, which
  /// must outlive the matcher unchanged.
  MdMatcher(const rules::Md& md, const data::Relation& dm,
            const MdMatcherOptions& options = {});

  MdMatcher(const MdMatcher&) = delete;
  MdMatcher& operator=(const MdMatcher&) = delete;

  /// Master tuple ids whose premise holds with `t`, ascending. Matching is
  /// a pure function of the premise projection's interned ids (the master
  /// data is static), so results are cached per projection: re-probing an
  /// unchanged tuple is a hash lookup. The returned reference is owned by
  /// the matcher's memo and stays valid until the matcher is destroyed —
  /// except with use_memos = false or past the memo capacity cap, where it
  /// points at per-(thread, matcher) scratch overwritten by the calling
  /// thread's next probe of *this* matcher (probing other matchers leaves
  /// it intact). Safe to call from any number of threads concurrently.
  const std::vector<data::TupleId>& Matches(const data::Tuple& t) const;

  /// Copying wrapper around Matches() (compatibility).
  std::vector<data::TupleId> FindMatches(const data::Tuple& t) const;

  /// First matching master tuple id, or -1.
  data::TupleId FindFirstMatch(const data::Tuple& t) const;

  const rules::Md& md() const { return md_; }

  /// Statistics of this matcher's match-list memo. Counters are live
  /// atomics; the entry/byte figures briefly lock each memo shard in turn.
  MemoStats memo_stats() const;

  /// Process-wide count of MdMatcher constructions (each construction pays
  /// the full index-build cost). Tests assert index sharing with it: a warm
  /// Session re-run on the same engine must not move this counter.
  static uint64_t ConstructedCount();

 private:
  // snapshot::Codec restores a matcher from a snapshot section through the
  // restore constructor below: it derives the clause roles and the
  // materialized all-masters list but builds no index (the codec installs
  // the deserialized equality index or suffix tree afterwards) and does not
  // bump ConstructedCount() — a snapshot-warmed engine deliberately reports
  // zero index builds. The public constructor delegates to it and adds
  // exactly those two steps.
  friend class ::uniclean::snapshot::Codec;
  struct RestoreTag {};
  MdMatcher(const rules::Md& md, const data::Relation& dm,
            const MdMatcherOptions& options, RestoreTag);

  // Blocking candidates for `t`: a list owned by the index, or thread_local
  // scratch valid until the calling thread's next Candidates() call.
  const std::vector<data::TupleId>& Candidates(const data::Tuple& t) const;

  const rules::Md& md_;
  const data::Relation& dm_;
  MdMatcherOptions options_;

  // Equality-clause blocking: key over all equality clauses' master values.
  // Immutable after construction.
  std::vector<size_t> equality_clauses_;
  std::unordered_map<data::GroupKey, std::vector<data::TupleId>,
                     data::GroupKeyHash>
      equality_index_;

  // Similarity blocking (used when no equality clause exists): suffix tree
  // over the distinct master values of the first similarity clause.
  // Immutable after construction.
  int blocking_clause_ = -1;
  similarity::GeneralizedSuffixTree tree_;
  std::vector<std::vector<data::TupleId>> value_owners_;  // per string id

  // Memo of full match lists keyed by the premise projection of the data
  // tuple. References handed out by Matches() point into this map (node
  // stability; entries are never erased).
  ShardedMemo<data::GroupKey, std::vector<data::TupleId>, data::GroupKeyHash>
      match_cache_;

  // Materialized 0..|Dm|-1 (brute force / empty premise paths); built in
  // the constructor when one of those paths is configured, immutable after.
  std::vector<data::TupleId> all_masters_;
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_MD_MATCHER_H_
