// MatchEnvironment: the session-scoped record-matching state shared by every
// cleaning phase. The paper's unified framework interleaves matching and
// repairing, so cRepair (§5), eRepair (§6) and hRepair (§7) all probe the
// same MDs against the same static master relation — yet historically each
// engine built its own MdMatcher (suffix tree + equality index) and re-warmed
// its own memo caches per run, paying the §5.2 index cost three times per
// pipeline. A MatchEnvironment is scoped to a (rule set, master relation)
// pair instead: it builds each MD's matcher exactly once and owns their
// match-list memos, which — because cell values are interned ids in the
// process-wide StringPool — stay valid across phases
// *and* across successive data relations cleaned against the same master
// (the warm serving scenario: every Session a uniclean::CleanEngine stamps
// out probes the engine's one environment).
//
// Lifetime: the environment borrows `rules` and `master`; both must outlive
// it and must never change. The paper's master data Dm is clean and static,
// which is what makes every memoized match list valid for the environment's
// whole lifetime.
//
// Thread safety: after construction the environment is an immutable
// artifact plus internally synchronized memos — matcher() and every
// MdMatcher probe are safe from any number of threads, which is what lets
// one warm environment serve concurrent uniclean::Session runs (see
// uniclean::CleanEngine).

#ifndef UNICLEAN_CORE_MATCH_ENVIRONMENT_H_
#define UNICLEAN_CORE_MATCH_ENVIRONMENT_H_

#include <memory>
#include <vector>

#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace snapshot {
class Codec;  // snapshot/codec.h: persists / restores the environment
}  // namespace snapshot
namespace core {

class MatchEnvironment {
 public:
  /// Builds one MdMatcher per MD rule of `rules` over `master`, eagerly, so
  /// construction time is the whole index-build cost (benches report it
  /// separately from repair time). CFD rule ids get no matcher.
  MatchEnvironment(const rules::RuleSet& rules, const data::Relation& master,
                   const MdMatcherOptions& options = {});

  // Matchers are held behind stable unique_ptrs; moving the environment
  // keeps every matcher reference handed out so far valid.
  MatchEnvironment(MatchEnvironment&&) = default;
  MatchEnvironment& operator=(MatchEnvironment&&) = default;
  MatchEnvironment(const MatchEnvironment&) = delete;
  MatchEnvironment& operator=(const MatchEnvironment&) = delete;

  const rules::RuleSet& rules() const { return *rules_; }
  const data::Relation& master() const { return *master_; }
  const MdMatcherOptions& matcher_options() const { return options_; }

  /// The shared matcher of an MD rule, or null when `rule` is a CFD. The
  /// returned matcher is owned by the environment and stays valid for the
  /// environment's lifetime.
  const MdMatcher* matcher(rules::RuleId rule) const {
    return matchers_[static_cast<size_t>(rule)].get();
  }

  /// Number of matchers this environment built (== number of MD rules).
  int num_matchers() const { return num_matchers_; }

  /// Aggregated memo statistics across every matcher of the environment:
  /// resident entries, a bytes estimate, hit/miss counters and the number
  /// of results refused admission past MdMatcherOptions::memo_capacity.
  /// Safe to call while sessions are running (counters are atomics; the
  /// entry walk briefly locks each memo shard).
  core::MemoStats MemoStats() const;

 private:
  // snapshot::Codec restores an environment from a snapshot: the tag
  // constructor binds rules/master/options without building any matcher;
  // the codec then installs one deserialized matcher per MD section.
  friend class ::uniclean::snapshot::Codec;
  struct RestoreTag {};
  MatchEnvironment(const rules::RuleSet& rules, const data::Relation& master,
                   const MdMatcherOptions& options, RestoreTag)
      : rules_(&rules), master_(&master), options_(options) {
    matchers_.resize(static_cast<size_t>(rules.num_rules()));
  }

  const rules::RuleSet* rules_;
  const data::Relation* master_;
  MdMatcherOptions options_;
  std::vector<std::unique_ptr<MdMatcher>> matchers_;  // indexed by rule id
  int num_matchers_ = 0;
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_MATCH_ENVIRONMENT_H_
