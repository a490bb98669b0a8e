#include "core/match_environment.h"

namespace uniclean {
namespace core {

MatchEnvironment::MatchEnvironment(const rules::RuleSet& rules,
                                   const data::Relation& master,
                                   const MdMatcherOptions& options)
    : rules_(&rules), master_(&master), options_(options) {
  matchers_.resize(static_cast<size_t>(rules.num_rules()));
  for (rules::RuleId rule = 0; rule < rules.num_rules(); ++rule) {
    if (rules.IsCfd(rule)) continue;
    matchers_[static_cast<size_t>(rule)] =
        std::make_unique<MdMatcher>(rules.md(rule), master, options_);
    ++num_matchers_;
  }
}

core::MemoStats MatchEnvironment::MemoStats() const {
  core::MemoStats total;
  for (const auto& matcher : matchers_) {
    if (matcher != nullptr) total += matcher->memo_stats();
  }
  return total;
}

}  // namespace core
}  // namespace uniclean
