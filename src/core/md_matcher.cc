#include "core/md_matcher.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace uniclean {
namespace core {

namespace {

std::atomic<uint64_t> g_constructed_count{0};

data::GroupKey EqualityKey(const std::vector<size_t>& clause_idx,
                           const rules::Md& md, const data::Tuple& tuple,
                           bool master_side) {
  data::GroupKey key;
  for (size_t i : clause_idx) {
    const rules::MdClause& c = md.premise()[i];
    key.Append(
        tuple.value(master_side ? c.master_attr : c.data_attr).id());
  }
  return key;
}

}  // namespace

uint64_t MdMatcher::ConstructedCount() {
  return g_constructed_count.load(std::memory_order_relaxed);
}

namespace {

/// Per-(thread, matcher) scratch for match lists that bypass the memo
/// (use_memos = false, or admission refused past memo_capacity). Keyed by
/// matcher so a reference handed out by one matcher survives the same
/// thread probing *another* matcher — the guarantee callers iterating
/// several MD rules rely on (a plain shared thread_local would alias them).
/// Entries for destroyed matchers linger (the key is never dereferenced);
/// so a long-lived worker thread in a server that keeps rebuilding engines
/// does not accumulate them forever, the map is emptied whenever it
/// exceeds kScratchMapLimit — far above any live rule set's matcher count,
/// so in practice only dead matchers' entries are dropped.
constexpr size_t kScratchMapLimit = 1024;

thread_local std::unordered_map<const void*, std::vector<data::TupleId>>
    t_match_scratch;

std::vector<data::TupleId>& MatchScratchFor(const void* matcher) {
  if (t_match_scratch.size() > kScratchMapLimit &&
      t_match_scratch.count(matcher) == 0) {
    t_match_scratch.clear();
  }
  return t_match_scratch[matcher];
}

/// Suffix-tree blocking candidates of the current probe. Candidates() hands
/// this out, but its result never leaves Matches() / FindFirstMatch(), so
/// one plain thread_local serves every matcher.
thread_local std::vector<data::TupleId> t_candidates;

}  // namespace

MdMatcher::MdMatcher(const rules::Md& md, const data::Relation& dm,
                     const MdMatcherOptions& options)
    : MdMatcher(md, dm, options, RestoreTag{}) {
  g_constructed_count.fetch_add(1, std::memory_order_relaxed);
  if (!options_.use_blocking) return;
  if (!equality_clauses_.empty()) {
    // Hash index over the master projection of every equality clause.
    for (data::TupleId s = 0; s < dm_.size(); ++s) {
      bool has_null = false;
      for (size_t i : equality_clauses_) {
        if (dm_.tuple(s).value(md_.premise()[i].master_attr).is_null()) {
          has_null = true;
          break;
        }
      }
      if (has_null) continue;  // null never satisfies a premise clause
      equality_index_[EqualityKey(equality_clauses_, md_, dm_.tuple(s),
                                  /*master_side=*/true)]
          .push_back(s);
    }
  } else if (blocking_clause_ >= 0) {
    // Suffix tree over the distinct master values of the blocking clause's
    // attribute, each owning the master tuples that carry it.
    const data::AttributeId attr =
        md_.premise()[static_cast<size_t>(blocking_clause_)].master_attr;
    std::unordered_map<data::ValueId, int> value_to_string_id;
    for (data::TupleId s = 0; s < dm_.size(); ++s) {
      const data::Value& v = dm_.tuple(s).value(attr);
      if (v.is_null()) continue;
      auto [it, inserted] = value_to_string_id.emplace(
          v.id(), static_cast<int>(value_owners_.size()));
      if (inserted) {
        tree_.AddString(v.view());
        value_owners_.emplace_back();
      }
      value_owners_[static_cast<size_t>(it->second)].push_back(s);
    }
    tree_.Build();
  }
}

MdMatcher::MdMatcher(const rules::Md& md, const data::Relation& dm,
                     const MdMatcherOptions& options, RestoreTag)
    : md_(md),
      dm_(dm),
      options_(options),
      match_cache_(options.memo_capacity) {
  UC_CHECK(md_.normalized()) << "MdMatcher requires a normalized MD";
  // Matches() keys its memo on the full premise projection; enforce the
  // GroupKey width limit here for matchers built outside RuleSet::Make.
  UC_CHECK_LE(md_.premise().size(), data::GroupKey::kMaxParts)
      << "MdMatcher: MD " << md_.name() << " premise too wide";
  if (options_.use_blocking) {
    for (size_t i = 0; i < md_.premise().size(); ++i) {
      if (md_.premise()[i].predicate.is_equality()) {
        equality_clauses_.push_back(i);
      } else if (blocking_clause_ < 0) {
        blocking_clause_ = static_cast<int>(i);
      }
    }
  }
  // The brute-force and empty-premise paths scan every master tuple; the
  // list is materialized here so probes share it without synchronization.
  if (!options_.use_blocking ||
      (equality_clauses_.empty() && blocking_clause_ < 0)) {
    all_masters_.resize(static_cast<size_t>(dm_.size()));
    for (data::TupleId s = 0; s < dm_.size(); ++s) {
      all_masters_[static_cast<size_t>(s)] = s;
    }
  }
}

const std::vector<data::TupleId>& MdMatcher::Candidates(
    const data::Tuple& t) const {
  static const std::vector<data::TupleId> kNoCandidates;
  if (!options_.use_blocking) return all_masters_;
  if (!equality_clauses_.empty()) {
    auto it = equality_index_.find(
        EqualityKey(equality_clauses_, md_, t, /*master_side=*/false));
    return it != equality_index_.end() ? it->second : kNoCandidates;
  }
  if (blocking_clause_ >= 0) {
    const rules::MdClause& clause =
        md_.premise()[static_cast<size_t>(blocking_clause_)];
    const data::Value& v = t.value(clause.data_attr);
    if (v.is_null()) return kNoCandidates;
    // Per-probe scratch reuses capacity across probes instead of allocating
    // fresh vectors per call.
    static thread_local std::vector<similarity::BlockingCandidate> top;
    tree_.TopL(v.view(), options_.top_l, /*max_leaves_per_probe=*/64, &top);
    t_candidates.clear();
    for (const similarity::BlockingCandidate& cand : top) {
      for (data::TupleId s :
           value_owners_[static_cast<size_t>(cand.string_id)]) {
        t_candidates.push_back(s);
      }
    }
    std::sort(t_candidates.begin(), t_candidates.end());
    t_candidates.erase(std::unique(t_candidates.begin(), t_candidates.end()),
                       t_candidates.end());
    return t_candidates;
  }
  // Premise with no clauses at all: every master tuple is a candidate.
  return all_masters_;
}

const std::vector<data::TupleId>& MdMatcher::Matches(
    const data::Tuple& t) const {
  // MatchScratchFor is resolved only on the paths that hand scratch out —
  // the dominant memo-hit path must not pay its map lookup.
  if (!options_.use_memos) {
    std::vector<data::TupleId>& scratch_matches = MatchScratchFor(this);
    scratch_matches.clear();
    for (data::TupleId s : Candidates(t)) {
      if (md_.PremiseHolds(t, dm_.tuple(s))) scratch_matches.push_back(s);
    }
    return scratch_matches;
  }
  data::GroupKey key;
  for (const rules::MdClause& c : md_.premise()) {
    key.Append(t.value(c.data_attr).id());
  }
  if (const auto* hit = match_cache_.Find(key)) return *hit;
  // Compute outside any shard lock; a concurrent probe of the same
  // projection recomputes the identical list and the insert below keeps
  // whichever landed first.
  std::vector<data::TupleId> matches;
  for (data::TupleId s : Candidates(t)) {
    if (md_.PremiseHolds(t, dm_.tuple(s))) matches.push_back(s);
  }
  if (const auto* resident = match_cache_.Insert(key, std::move(matches))) {
    return *resident;
  }
  // Admission refused past the cap. `matches` was not consumed (Insert only
  // moves on success); hand it out via per-(thread, matcher) scratch.
  std::vector<data::TupleId>& scratch_matches = MatchScratchFor(this);
  scratch_matches = std::move(matches);
  return scratch_matches;
}

std::vector<data::TupleId> MdMatcher::FindMatches(const data::Tuple& t) const {
  return Matches(t);
}

data::TupleId MdMatcher::FindFirstMatch(const data::Tuple& t) const {
  if (!options_.use_memos) {
    // No cache to amortize a full match list: keep the early exit.
    for (data::TupleId s : Candidates(t)) {
      if (md_.PremiseHolds(t, dm_.tuple(s))) return s;
    }
    return -1;
  }
  const std::vector<data::TupleId>& matches = Matches(t);
  return matches.empty() ? -1 : matches.front();
}

MemoStats MdMatcher::memo_stats() const {
  return match_cache_.Stats([](const data::GroupKey& k,
                               const std::vector<data::TupleId>& v) {
    return sizeof(k) + sizeof(v) + v.capacity() * sizeof(data::TupleId);
  });
}

}  // namespace core
}  // namespace uniclean
