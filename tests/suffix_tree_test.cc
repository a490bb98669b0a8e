#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/suffix_tree.h"

namespace uniclean {
namespace similarity {

/// The reference TopL: the same probe walk and per-probe leaf cap as
/// GeneralizedSuffixTree::TopL, but with hash-map scores and no early exit,
/// so every probe runs and every touched string is ranked.
class SuffixTreeTestPeer {
 public:
  static std::vector<BlockingCandidate> ReferenceTopL(
      const GeneralizedSuffixTree& tree, std::string_view q, int l,
      int max_leaves_per_probe) {
    std::vector<BlockingCandidate> result;
    if (l <= 0 || q.empty()) return result;
    auto symbol = [](char c) {
      return static_cast<int32_t>(static_cast<unsigned char>(c));
    };
    std::vector<std::pair<int, int>> probes;  // (node, depth)
    for (size_t start = 0; start < q.size(); ++start) {
      int node = 0;
      int depth = 0;
      size_t i = start;
      while (i < q.size()) {
        const int next = tree.FindChild(node, symbol(q[i]));
        if (next < 0) break;
        const auto& child = tree.nodes_[static_cast<size_t>(next)];
        const int len = tree.EdgeLength(child);
        int advanced = 0;
        bool mismatch = false;
        for (int k = 0; k < len && i < q.size(); ++k, ++i) {
          if (tree.text_[static_cast<size_t>(child.start + k)] !=
              symbol(q[i])) {
            mismatch = true;
            break;
          }
          ++advanced;
        }
        depth += advanced;
        node = next;
        if (depth > 0) probes.emplace_back(node, depth);
        if (mismatch || advanced < len) break;
      }
    }
    std::unordered_map<int, int> best_score;
    for (const auto& [node, depth] : probes) {
      std::vector<int> starts;
      tree.CollectLeaves(node, max_leaves_per_probe, &starts);
      for (int s : starts) {
        const int sid = tree.StringIdAt(s);
        if (sid < 0) continue;
        int& score = best_score[sid];
        score = std::max(score, depth);
      }
    }
    for (const auto& [sid, score] : best_score) {
      result.push_back(BlockingCandidate{sid, score});
    }
    std::sort(result.begin(), result.end(),
              [](const BlockingCandidate& a, const BlockingCandidate& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.string_id < b.string_id;
              });
    if (static_cast<int>(result.size()) > l) {
      result.resize(static_cast<size_t>(l));
    }
    return result;
  }
};

namespace {

GeneralizedSuffixTree BuildTree(const std::vector<std::string>& strings) {
  GeneralizedSuffixTree tree;
  for (const auto& s : strings) tree.AddString(s);
  tree.Build();
  return tree;
}

bool BruteContains(const std::vector<std::string>& corpus,
                   const std::string& q) {
  for (const auto& s : corpus) {
    if (s.find(q) != std::string::npos) return true;
  }
  return false;
}

TEST(SuffixTreeTest, ContainsSubstringSmall) {
  auto tree = BuildTree({"banana", "bandana"});
  EXPECT_TRUE(tree.ContainsSubstring("ana"));
  EXPECT_TRUE(tree.ContainsSubstring("band"));
  EXPECT_TRUE(tree.ContainsSubstring("banana"));
  EXPECT_TRUE(tree.ContainsSubstring(""));
  EXPECT_FALSE(tree.ContainsSubstring("bananan"));
  EXPECT_FALSE(tree.ContainsSubstring("x"));
}

TEST(SuffixTreeTest, HandlesEmptyAndSingleCharStrings) {
  auto tree = BuildTree({"", "a", "aa"});
  EXPECT_EQ(tree.num_strings(), 3);
  EXPECT_TRUE(tree.ContainsSubstring("a"));
  EXPECT_TRUE(tree.ContainsSubstring("aa"));
  EXPECT_FALSE(tree.ContainsSubstring("aaa"));
  EXPECT_FALSE(tree.ContainsSubstring("b"));
}

TEST(SuffixTreeTest, AllSuffixesOfEveryStringAreContained) {
  std::vector<std::string> corpus{"mississippi", "missing", "sip"};
  auto tree = BuildTree(corpus);
  for (const auto& s : corpus) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; len + i <= s.size(); ++len) {
        EXPECT_TRUE(tree.ContainsSubstring(s.substr(i, len)))
            << s.substr(i, len);
      }
    }
  }
}

TEST(SuffixTreeTest, ContainsMatchesBruteForceOnRandomCorpus) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> corpus;
    int n = 1 + static_cast<int>(rng.Index(8));
    for (int i = 0; i < n; ++i) {
      // Small alphabet to force repeated substrings and deep structure.
      std::string s;
      size_t len = rng.Index(12);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      corpus.push_back(s);
    }
    auto tree = BuildTree(corpus);
    for (int probe = 0; probe < 50; ++probe) {
      std::string q;
      size_t len = rng.Index(6);
      for (size_t j = 0; j < len; ++j) {
        q.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      EXPECT_EQ(tree.ContainsSubstring(q), BruteContains(corpus, q))
          << "query=" << q;
    }
  }
}

TEST(SuffixTreeTest, TopLEmptyQueryOrZeroL) {
  auto tree = BuildTree({"abc"});
  EXPECT_TRUE(tree.TopL("", 5).empty());
  EXPECT_TRUE(tree.TopL("abc", 0).empty());
}

TEST(SuffixTreeTest, TopLFindsExactDuplicateFirst) {
  auto tree = BuildTree({"edinburgh", "london", "edimburgh"});
  auto top = tree.TopL("edinburgh", 2, 1024);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].string_id, 0);
  EXPECT_EQ(top[0].score, 9);  // whole string
}

TEST(SuffixTreeTest, TopLScoreEqualsExactLcsWithGenerousCaps) {
  Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    std::vector<std::string> corpus;
    int n = 2 + static_cast<int>(rng.Index(6));
    for (int i = 0; i < n; ++i) {
      std::string s;
      size_t len = 1 + rng.Index(10);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(4)));
      }
      corpus.push_back(s);
    }
    auto tree = BuildTree(corpus);
    std::string q;
    size_t len = 1 + rng.Index(10);
    for (size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    auto top = tree.TopL(q, n, 1 << 20);
    // With unbounded caps every string sharing a substring appears, and the
    // reported score is the exact LCS length.
    for (const auto& cand : top) {
      int exact = LongestCommonSubstring(q, corpus[static_cast<size_t>(
                                                cand.string_id)]);
      EXPECT_EQ(cand.score, exact)
          << "q=" << q << " s=" << corpus[static_cast<size_t>(cand.string_id)];
    }
    // The true best-LCS string must be ranked first (same score at least).
    int best_exact = 0;
    for (const auto& s : corpus) {
      best_exact = std::max(best_exact, LongestCommonSubstring(q, s));
    }
    if (best_exact > 0) {
      ASSERT_FALSE(top.empty());
      EXPECT_EQ(top[0].score, best_exact);
    }
  }
}

TEST(SuffixTreeTest, TopLMatchesUnboundedReference) {
  // A corpus with exact duplicates and many shared substrings, so score
  // ties at the top-l boundary and truncated leaf collections both occur.
  Rng rng(4242);
  const std::vector<std::string> stems = {"data", "clean", "match",
                                          "repair", "record", "rule"};
  std::vector<std::string> corpus;
  for (int i = 0; i < 120; ++i) {
    std::string s;
    const size_t parts = 1 + rng.Index(3);
    for (size_t p = 0; p < parts; ++p) {
      if (rng.Index(2) == 0) {
        s += stems[rng.Index(stems.size())];
      } else {
        const size_t len = 1 + rng.Index(5);
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>('a' + rng.Index(6)));
        }
      }
    }
    corpus.push_back(s);
    if (rng.Index(4) == 0) corpus.push_back(s);  // exact duplicate
  }
  const auto tree = BuildTree(corpus);
  std::vector<std::string> queries = {"datamatch", "zzz", "a", "cleanrule"};
  for (int i = 0; i < 40; ++i) {
    queries.push_back(corpus[rng.Index(corpus.size())]);
    std::string q;
    const size_t len = 1 + rng.Index(12);
    for (size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<char>('a' + rng.Index(8)));
    }
    queries.push_back(q);
  }
  std::vector<BlockingCandidate> out;
  for (int l : {1, 2, 5, 20}) {
    for (int cap : {1, 4, 64}) {
      for (const auto& q : queries) {
        const auto expected =
            SuffixTreeTestPeer::ReferenceTopL(tree, q, l, cap);
        tree.TopL(q, l, cap, &out);
        EXPECT_EQ(out, expected) << "q=" << q << " l=" << l << " cap=" << cap;
        EXPECT_EQ(tree.TopL(q, l, cap), expected);
      }
    }
  }
}

TEST(SuffixTreeTest, TopLRespectsLimit) {
  auto tree = BuildTree({"aaa", "aab", "aac", "aad", "aae"});
  auto top = tree.TopL("aa", 3, 1024);
  EXPECT_LE(top.size(), 3u);
  for (const auto& cand : top) EXPECT_EQ(cand.score, 2);
}

TEST(SuffixTreeTest, TopLOrderIsScoreDescending) {
  auto tree = BuildTree({"xyz", "abxy", "ab"});
  auto top = tree.TopL("abxyz", 3, 1024);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  EXPECT_EQ(top[0].string_id, 1);  // "abxy" shares 4 chars
  EXPECT_EQ(top[0].score, 4);
}

TEST(SuffixTreeTest, DuplicateStringsGetDistinctIds) {
  GeneralizedSuffixTree tree;
  int a = tree.AddString("same");
  int b = tree.AddString("same");
  tree.Build();
  EXPECT_NE(a, b);
  auto top = tree.TopL("same", 5, 1024);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].score, 4);
  EXPECT_EQ(top[1].score, 4);
}

TEST(SuffixTreeTest, EveryLeafIsADistinctSuffixStart) {
  // A correct Ukkonen build has exactly one leaf per suffix of the
  // concatenated text (strings + one separator each).
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    GeneralizedSuffixTree tree;
    int total_len = 0;
    int n = 1 + static_cast<int>(rng.Index(6));
    for (int i = 0; i < n; ++i) {
      std::string s;
      size_t len = rng.Index(15);
      for (size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('a' + rng.Index(3)));
      }
      tree.AddString(s);
      total_len += static_cast<int>(s.size()) + 1;  // + separator
    }
    tree.Build();
    std::vector<int> starts = tree.AllSuffixStarts();
    ASSERT_EQ(static_cast<int>(starts.size()), total_len);
    for (int i = 0; i < total_len; ++i) {
      EXPECT_EQ(starts[static_cast<size_t>(i)], i);
    }
  }
}

TEST(SuffixTreeTest, LinearNodeCountOnRepetitiveInput) {
  // aaaa...a is the worst case for naive trees; Ukkonen keeps it linear.
  std::string s(2000, 'a');
  GeneralizedSuffixTree tree;
  tree.AddString(s);
  tree.Build();
  // A suffix tree has at most 2N internal+leaf nodes (+root).
  EXPECT_LE(tree.num_nodes(), 2 * 2002 + 1);
}

}  // namespace
}  // namespace similarity
}  // namespace uniclean
