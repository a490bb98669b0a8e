// Property suite for the §6.1 entropy measure used by eRepair, and for the
// §6.3 walk that resolves variable-CFD groups in ascending entropy order.

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/erepair.h"
#include "core/match_environment.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/parser.h"

namespace uniclean {
namespace core {
namespace {

class EntropyProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyProperties, BoundedInUnitInterval) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::vector<int> counts;
    int k = 1 + static_cast<int>(rng.Index(8));
    for (int j = 0; j < k; ++j) {
      counts.push_back(1 + static_cast<int>(rng.Index(20)));
    }
    double h = GroupEntropy(counts);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0 + 1e-12);
  }
}

TEST_P(EntropyProperties, PermutationInvariant) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 100; ++i) {
    std::vector<int> counts;
    int k = 2 + static_cast<int>(rng.Index(6));
    for (int j = 0; j < k; ++j) {
      counts.push_back(1 + static_cast<int>(rng.Index(15)));
    }
    std::vector<int> shuffled = counts;
    rng.Shuffle(&shuffled);
    EXPECT_DOUBLE_EQ(GroupEntropy(counts), GroupEntropy(shuffled));
  }
}

TEST_P(EntropyProperties, ScaleInvariant) {
  // H depends on the distribution, not the group size: doubling every
  // count leaves it unchanged.
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 100; ++i) {
    std::vector<int> counts;
    int k = 2 + static_cast<int>(rng.Index(5));
    for (int j = 0; j < k; ++j) {
      counts.push_back(1 + static_cast<int>(rng.Index(10)));
    }
    std::vector<int> doubled = counts;
    for (int& c : doubled) c *= 2;
    EXPECT_NEAR(GroupEntropy(counts), GroupEntropy(doubled), 1e-12);
  }
}

TEST_P(EntropyProperties, ConcentrationDecreasesEntropy) {
  // Moving one unit of mass from a minority value to the majority value
  // never increases the entropy.
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 100; ++i) {
    int k = 2 + static_cast<int>(rng.Index(4));
    std::vector<int> counts;
    for (int j = 0; j < k; ++j) {
      counts.push_back(2 + static_cast<int>(rng.Index(10)));
    }
    auto max_it = std::max_element(counts.begin(), counts.end());
    auto min_it = std::min_element(counts.begin(), counts.end());
    if (max_it == min_it || *min_it <= 1) continue;
    std::vector<int> concentrated = counts;
    concentrated[static_cast<size_t>(max_it - counts.begin())] += 1;
    concentrated[static_cast<size_t>(min_it - counts.begin())] -= 1;
    EXPECT_LE(GroupEntropy(concentrated), GroupEntropy(counts) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyProperties,
                         ::testing::Values<uint64_t>(1, 2, 3));

TEST(EntropyEdgeCases, UniformIsExactlyOne) {
  for (int k = 2; k <= 10; ++k) {
    std::vector<int> counts(static_cast<size_t>(k), 7);
    EXPECT_NEAR(GroupEntropy(counts), 1.0, 1e-12) << "k=" << k;
  }
}

TEST(EntropyEdgeCases, SingletonIsZero) {
  EXPECT_DOUBLE_EQ(GroupEntropy({1}), 0.0);
  EXPECT_DOUBLE_EQ(GroupEntropy({1000}), 0.0);
}

TEST(EntropyEdgeCases, HeavySkewApproachesZero) {
  EXPECT_LT(GroupEntropy({1000, 1}), 0.02);
}

// ---------------------------------------------------------------------------
// The entropy walk (§6.3, Fig. 9): groups of one variable CFD K -> V are
// resolved to their majority value in ascending entropy order, ties in
// first-encounter order, stopping at the first group with entropy >= δ2.
// ---------------------------------------------------------------------------

/// One eRepair fix as the FixObserver reports it.
struct ObservedFix {
  data::TupleId tuple;
  std::string value;
  bool operator==(const ObservedFix& other) const {
    return tuple == other.tuple && value == other.value;
  }
};

void PrintTo(const ObservedFix& fix, std::ostream* os) {
  *os << "t" << fix.tuple << ":=" << fix.value;
}

/// R(K, V) with one row per (key, value) pair, all cells unasserted.
data::Relation KeyValueRelation(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  data::Relation d(data::MakeSchema("R", {"K", "V"}));
  for (const auto& [key, value] : rows) d.AddRow({key, value});
  return d;
}

/// Runs eRepair with the single rule K -> V; returns the fixes in order.
std::vector<ObservedFix> RunWalk(data::Relation* d, double delta2,
                                 ERepairStats* stats = nullptr) {
  auto master = data::MakeSchema("m", {"X"});
  auto rules =
      rules::ParseRuleSet("CFD fd: K -> V\n", d->schema_ptr(), master);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  data::Relation dm(master);
  MatchEnvironment env(*rules, dm);
  std::vector<ObservedFix> fixes;
  ERepairOptions options;
  options.delta2 = delta2;
  options.on_fix = [&fixes](data::TupleId t, data::AttributeId,
                            const data::Value&, const data::Value& after,
                            rules::RuleId) {
    fixes.push_back(ObservedFix{t, std::string(after.view())});
  };
  ERepairStats run = ERepair(d, env, options);
  if (stats != nullptr) *stats = run;
  return fixes;
}

TEST(ERepairEntropyWalk, GroupAtExactlyDelta2IsSkipped) {
  // Counts {3, 1}: the walk resolves only groups strictly below δ2.
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"k", "a"}, {"k", "a"}, {"k", "b"}, {"k", "a"}};
  const double h = GroupEntropy({3, 1});

  data::Relation at = KeyValueRelation(rows);
  ERepairStats stats;
  EXPECT_TRUE(RunWalk(&at, h, &stats).empty());
  EXPECT_EQ(stats.groups_resolved, 0);
  EXPECT_GE(stats.groups_skipped_high_entropy, 1);

  data::Relation above = KeyValueRelation(rows);
  EXPECT_EQ(RunWalk(&above, std::nextafter(h, 1.0), &stats),
            (std::vector<ObservedFix>{{2, "a"}}));
  EXPECT_EQ(stats.groups_resolved, 1);
}

TEST(ERepairEntropyWalk, LowerEntropyGroupsResolveFirst) {
  // Group "x" is met first but has counts {2, 1} (H ≈ 0.92); group "y" has
  // counts {4, 1} (H ≈ 0.72), so y is resolved before x.
  data::Relation d = KeyValueRelation({{"x", "p"},
                                       {"y", "q"},
                                       {"x", "p"},
                                       {"y", "q"},
                                       {"x", "r"},
                                       {"y", "q"},
                                       {"y", "s"},
                                       {"y", "q"}});
  ASSERT_LT(GroupEntropy({4, 1}), GroupEntropy({2, 1}));
  EXPECT_EQ(RunWalk(&d, 0.95),
            (std::vector<ObservedFix>{{6, "q"}, {4, "p"}}));
}

TEST(ERepairEntropyWalk, EqualEntropyGroupsResolveInFirstEncounterOrder) {
  // Three groups with identical counts {2, 1}, first met in the order
  // k3, k1, k2 — neither key order nor value order.
  data::Relation d = KeyValueRelation({{"k3", "a"},
                                       {"k1", "b"},
                                       {"k2", "c"},
                                       {"k1", "z"},
                                       {"k2", "c"},
                                       {"k3", "y"},
                                       {"k2", "x"},
                                       {"k3", "a"},
                                       {"k1", "b"}});
  EXPECT_EQ(RunWalk(&d, 0.95), (std::vector<ObservedFix>{
                                   {5, "a"}, {3, "b"}, {6, "c"}}));
}

TEST(ERepairEntropyWalk, MajorityTieGoesToTheSmallestValue) {
  // Counts {2, 2, 1} over values "n", "m", "o": the two-way majority tie is
  // broken toward the lexicographically smallest value.
  data::Relation d = KeyValueRelation(
      {{"k", "n"}, {"k", "o"}, {"k", "m"}, {"k", "n"}, {"k", "m"}});
  ASSERT_LT(GroupEntropy({2, 2, 1}), 1.0);
  EXPECT_EQ(RunWalk(&d, 1.0), (std::vector<ObservedFix>{
                                  {0, "m"}, {1, "m"}, {3, "m"}}));
}

TEST(ERepairEntropyWalk, AgreeingGroupsAreNotCandidates) {
  // Only the one disagreeing group (entropy 1) enters the walk, once per
  // pass; the agreeing groups are neither resolved nor skipped.
  data::Relation d = KeyValueRelation({{"a", "1"},
                                       {"a", "1"},
                                       {"b", "2"},
                                       {"c", "3"},
                                       {"c", "4"},
                                       {"b", "2"}});
  ERepairStats stats;
  EXPECT_TRUE(RunWalk(&d, 0.8, &stats).empty());
  EXPECT_EQ(stats.groups_resolved, 0);
  EXPECT_EQ(stats.groups_skipped_high_entropy, stats.passes);
}

/// Random K -> V relations: eRepair's fixes must equal those of a reference
/// walk over a std::multimap keyed by entropy (equal keys keep insertion
/// order), cut at δ2.
class ERepairWalkProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ERepairWalkProperties, MatchesReferenceMultimapWalk) {
  Rng rng(GetParam());
  const size_t num_groups = 6 + rng.Index(15);
  const std::vector<std::string> values = {"v0", "v1", "v2"};
  std::vector<std::pair<std::string, std::string>> rows;
  const size_t num_rows = num_groups * (3 + rng.Index(4));
  for (size_t i = 0; i < num_rows; ++i) {
    // Skewed value choice over small groups, so groups span a range of
    // entropies and many share one (ties).
    const size_t v = rng.Bernoulli(0.5) ? 0 : rng.Index(values.size());
    rows.emplace_back("k" + std::to_string(rng.Index(num_groups)), values[v]);
  }

  // Reference: groups in first-encounter order, values in lexicographic
  // order (as eRepair sums the entropy), the first strict maximum as target.
  std::vector<std::string> key_order;
  std::map<std::string, std::vector<data::TupleId>> members;
  std::map<std::string, std::map<std::string, int>> counts;
  for (data::TupleId t = 0; t < static_cast<data::TupleId>(rows.size()); ++t) {
    const auto& [key, value] = rows[static_cast<size_t>(t)];
    if (members[key].empty()) key_order.push_back(key);
    members[key].push_back(t);
    ++counts[key][value];
  }
  std::multimap<double, std::pair<std::string, std::string>> walk;
  std::vector<double> entropies;
  for (const std::string& key : key_order) {
    if (counts[key].size() <= 1) continue;
    std::vector<int> c;
    std::string target;
    int best = 0;
    for (const auto& [value, n] : counts[key]) {
      c.push_back(n);
      if (n > best) {
        best = n;
        target = value;
      }
    }
    const double h = GroupEntropy(c);
    walk.emplace(h, std::make_pair(key, target));
    entropies.push_back(h);
  }
  // Cut at one of the groups' own entropies from the upper half, so most
  // groups are resolved and the δ2 boundary is hit.
  ASSERT_FALSE(entropies.empty());
  std::sort(entropies.begin(), entropies.end());
  const double delta2 = entropies[entropies.size() / 2 +
                                  rng.Index((entropies.size() + 1) / 2)];
  std::vector<ObservedFix> expected;
  int resolved = 0;
  for (const auto& [h, group] : walk) {
    if (!(h < delta2)) break;
    ++resolved;
    for (data::TupleId t : members[group.first]) {
      if (rows[static_cast<size_t>(t)].second != group.second) {
        expected.push_back(ObservedFix{t, group.second});
      }
    }
  }

  data::Relation d = KeyValueRelation(rows);
  ERepairStats stats;
  EXPECT_EQ(RunWalk(&d, delta2, &stats), expected);
  EXPECT_EQ(stats.groups_resolved, resolved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ERepairWalkProperties,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 11, 13));

}  // namespace
}  // namespace core
}  // namespace uniclean
