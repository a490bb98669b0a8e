#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/metrics.h"
#include "similarity/predicate.h"

namespace uniclean {
namespace similarity {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("same", "same"), 0);
  EXPECT_EQ(EditDistance("Bob", "Robert"), 4);
}

TEST(EditDistanceTest, SymmetryOnRandomStrings) {
  Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(12));
    std::string b = rng.RandomWord(rng.Index(12));
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  }
}

TEST(EditDistanceTest, TriangleInequalityOnRandomStrings) {
  Rng rng(102);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(10));
    std::string b = rng.RandomWord(rng.Index(10));
    std::string c = rng.RandomWord(rng.Index(10));
    EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditDistanceTest, BoundedMatchesFullWhenWithinBound) {
  Rng rng(103);
  for (int i = 0; i < 500; ++i) {
    std::string a = rng.RandomWord(1 + rng.Index(14));
    std::string b = rng.RandomWord(1 + rng.Index(14));
    int full = EditDistance(a, b);
    for (int k : {0, 1, 2, 3, 8, 20}) {
      int bounded = BoundedEditDistance(a, b, k);
      if (full <= k) {
        EXPECT_EQ(bounded, full) << a << " vs " << b << " k=" << k;
      } else {
        EXPECT_GT(bounded, k) << a << " vs " << b << " k=" << k;
      }
    }
  }
}

TEST(EditDistanceTest, BoundedHandlesEmptyAndLengthGap) {
  EXPECT_EQ(BoundedEditDistance("", "", 0), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "", 3), 3);
  EXPECT_GT(BoundedEditDistance("abcdef", "", 3), 3);
  EXPECT_GT(BoundedEditDistance("aaaaaaaa", "a", 2), 2);
}

TEST(HammingDistanceTest, KnownValues) {
  EXPECT_EQ(HammingDistance("karolin", "kathrin"), 3);
  EXPECT_EQ(HammingDistance("abc", "abc"), 0);
  EXPECT_EQ(HammingDistance("abc", "abcd"), 1);
  EXPECT_EQ(HammingDistance("", "xy"), 2);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
}

/// Textbook Jaro with per-call allocations — the reference the scratch-buffer
/// implementation must match exactly.
double ReferenceJaro(const std::string& a, const std::string& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  std::vector<bool> am(static_cast<size_t>(n)), bm(static_cast<size_t>(m));
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - window); j <= std::min(m - 1, i + window);
         ++j) {
      if (bm[static_cast<size_t>(j)] ||
          a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) {
        continue;
      }
      am[static_cast<size_t>(i)] = bm[static_cast<size_t>(j)] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    if (!am[static_cast<size_t>(i)]) continue;
    while (!bm[static_cast<size_t>(j)]) ++j;
    if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(j)]) {
      ++transpositions;
    }
    ++j;
  }
  double md = matches;
  return (md / n + md / m + (md - transpositions / 2.0) / md) / 3.0;
}

TEST(JaroTest, DisjointAlphabetsScoreZero) {
  // No common character: no position mask ever hits, so the score is 0.
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("aaaa", "bbbbbbbb"), 0.0);
  // Shared characters must agree with the reference, including when the
  // only unique shared character ('a') sits outside the match window.
  EXPECT_DOUBLE_EQ(JaroSimilarity("a_______", "_______a"),
                   ReferenceJaro("a_______", "_______a"));
  EXPECT_DOUBLE_EQ(JaroSimilarity("abcdefgh", "hgfedcba"),
                   ReferenceJaro("abcdefgh", "hgfedcba"));
}

/// A random string of `length` letters drawn from the first `alphabet`
/// lowercase letters.
std::string RandomText(Rng& rng, size_t length, size_t alphabet) {
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>('a' + rng.Index(alphabet)));
  }
  return s;
}

/// `s` after a few random substitutions, deletions, insertions and
/// adjacent swaps: the near-duplicates MD matching mostly compares.
std::string NearDuplicate(Rng& rng, std::string s, size_t alphabet) {
  const size_t edits = rng.Index(4);
  for (size_t e = 0; e < edits; ++e) {
    const char c = static_cast<char>('a' + rng.Index(alphabet));
    const size_t kind = rng.Index(4);
    if (kind == 2 || s.empty()) {
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.Index(s.size() + 1)),
               c);
      continue;
    }
    const size_t at = rng.Index(s.size());
    if (kind == 0) {
      s[at] = c;
    } else if (kind == 1) {
      s.erase(at, 1);
    } else if (at + 1 < s.size()) {
      std::swap(s[at], s[at + 1]);
    }
  }
  return s;
}

TEST(JaroTest, MatchesReferenceOnRandomStrings) {
  // Lengths up to 200 make the position masks span up to four words;
  // small alphabets force many candidate positions per window. Compared
  // exactly: the bit-parallel match must give the same double.
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    const size_t alphabet = 1 + rng.Index(26);
    std::string a = RandomText(rng, rng.Index(201), alphabet);
    std::string b = i % 2 == 0 ? RandomText(rng, rng.Index(201), alphabet)
                               : NearDuplicate(rng, a, alphabet);
    EXPECT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b))
        << "a='" << a << "' b='" << b << "'";
    EXPECT_EQ(JaroSimilarity(b, a), ReferenceJaro(b, a))
        << "a='" << b << "' b='" << a << "'";
  }
}

TEST(JaroWinklerTest, BoostsCommonPrefix) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
}

TEST(JaroWinklerTest, BoundedInUnitInterval) {
  Rng rng(104);
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.RandomWord(rng.Index(10));
    std::string b = rng.RandomWord(rng.Index(10));
    double s = JaroWinklerSimilarity(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, a), a.empty() ? 1.0 : 1.0);
  }
}

TEST(QGramTest, ProfilePadsAndSorts) {
  auto grams = QGramProfile("ab", 2);
  // padded: #ab# -> {#a, ab, b#}
  EXPECT_EQ(grams, (std::vector<std::string>{"#a", "ab", "b#"}));
}

TEST(QGramTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(QGramJaccard("", "", 2), 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("abc", "abc", 2), 1.0);
  double s = QGramJaccard("night", "nacht", 2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
  EXPECT_DOUBLE_EQ(QGramJaccard("ab", "xy", 2), 0.0);
}

TEST(QGramTest, IdProfileMatchesStringProfile) {
  // The interned-id profile must be the string profile, gram for gram:
  // same multiset, same (lexicographic == big-endian-packed) order.
  Rng rng(301);
  std::vector<uint64_t> ids;
  for (int q : {1, 2, 3, 5, 8}) {
    for (int i = 0; i < 100; ++i) {
      std::string s = rng.RandomWord(rng.Index(15));
      std::vector<std::string> strings = QGramProfile(s, q);
      QGramIdProfile(s, q, &ids);
      ASSERT_EQ(ids.size(), strings.size()) << "q=" << q << " s=" << s;
      for (size_t g = 0; g < ids.size(); ++g) {
        uint64_t packed = 0;
        for (char c : strings[g]) {
          packed = (packed << 8) | static_cast<unsigned char>(c);
        }
        EXPECT_EQ(ids[g], packed) << "q=" << q << " s=" << s << " gram " << g;
      }
    }
  }
}

TEST(QGramTest, JaccardParityWithStringReference) {
  // QGramJaccard runs on interned integer grams for q <= 8; pin it to a
  // from-scratch string-profile reference implementation.
  auto reference = [](std::string_view a, std::string_view b, int q) {
    std::vector<std::string> ga = QGramProfile(a, q);
    std::vector<std::string> gb = QGramProfile(b, q);
    ga.erase(std::unique(ga.begin(), ga.end()), ga.end());
    gb.erase(std::unique(gb.begin(), gb.end()), gb.end());
    if (ga.empty() && gb.empty()) return 1.0;
    std::vector<std::string> inter;
    std::set_intersection(ga.begin(), ga.end(), gb.begin(), gb.end(),
                          std::back_inserter(inter));
    size_t uni = ga.size() + gb.size() - inter.size();
    return uni == 0 ? 1.0
                    : static_cast<double>(inter.size()) /
                          static_cast<double>(uni);
  };
  Rng rng(302);
  for (int q : {1, 2, 3, 4, 8}) {
    for (int i = 0; i < 200; ++i) {
      std::string a = rng.RandomWord(rng.Index(12));
      std::string b = rng.RandomWord(rng.Index(12));
      EXPECT_DOUBLE_EQ(QGramJaccard(a, b, q), reference(a, b, q))
          << "q=" << q << " a=" << a << " b=" << b;
    }
  }
}

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LongestCommonSubstring("", "abc"), 0);
  EXPECT_EQ(LongestCommonSubstring("abc", "abc"), 3);
  EXPECT_EQ(LongestCommonSubstring("xabcy", "zabcw"), 3);
  EXPECT_EQ(LongestCommonSubstring("abcdef", "zcdemn"), 3);  // "cde"
  EXPECT_EQ(LongestCommonSubstring("ab", "ba"), 1);
}

TEST(LcsTest, BoundedByShorterString) {
  Rng rng(105);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(rng.Index(15));
    std::string b = rng.RandomWord(rng.Index(15));
    int lcs = LongestCommonSubstring(a, b);
    EXPECT_LE(lcs, static_cast<int>(std::min(a.size(), b.size())));
    EXPECT_GE(lcs, 0);
    EXPECT_EQ(lcs, LongestCommonSubstring(b, a));
  }
}

TEST(NormalizedEditDistanceTest, UnitIntervalAndLengthAware) {
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("a", "b"), 1.0);
  // §3.1: longer strings with 1-char difference are closer than shorter ones.
  double long_pair = NormalizedEditDistance("abcdefghij", "abcdefghiX");
  double short_pair = NormalizedEditDistance("ab", "aX");
  EXPECT_LT(long_pair, short_pair);
}

TEST(PredicateTest, EqualsPredicate) {
  auto p = SimilarityPredicate::Equals();
  EXPECT_TRUE(p.is_equality());
  EXPECT_TRUE(p.Evaluate("x", "x"));
  EXPECT_FALSE(p.Evaluate("x", "y"));
  EXPECT_EQ(p.ToString(), "=");
  EXPECT_EQ(p.BlockingEditBound(10), 0);
}

TEST(PredicateTest, EditPredicate) {
  auto p = SimilarityPredicate::Edit(2);
  EXPECT_FALSE(p.is_equality());
  EXPECT_TRUE(p.Evaluate("Mark", "Marc"));
  EXPECT_TRUE(p.Evaluate("Mark", "Mark"));
  EXPECT_FALSE(p.Evaluate("Mark", "Robert"));
  EXPECT_EQ(p.ToString(), "edit<=2");
  EXPECT_EQ(p.BlockingEditBound(10), 2);
}

TEST(PredicateTest, JaroWinklerPredicate) {
  auto p = SimilarityPredicate::JaroWinkler(0.90);
  EXPECT_TRUE(p.Evaluate("MARTHA", "MARHTA"));
  EXPECT_FALSE(p.Evaluate("MARTHA", "XQZRVW"));
  EXPECT_GT(p.BlockingEditBound(10), 0);
}

TEST(PredicateTest, JaroWinklerBoundIsExact) {
  // The common-character bound may only reject pairs the full similarity
  // rejects too: Evaluate must equal the plain threshold test.
  const double kThresholds[] = {0.7, 0.8, 0.85, 0.9, 0.95, 1.0};
  Rng rng(318);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 1500; ++i) {
    const size_t alphabet = 1 + rng.Index(26);
    std::string a = RandomText(rng, rng.Index(80), alphabet);
    switch (i % 3) {
      case 0:
        pairs.emplace_back(a, RandomText(rng, rng.Index(80), alphabet));
        break;
      case 1:
        pairs.emplace_back(a, NearDuplicate(rng, a, alphabet));
        break;
      default:
        pairs.emplace_back(a, a);
        break;
    }
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_GE(JaroWinklerUpperBound(a, b) + 1e-9, JaroWinklerSimilarity(a, b))
        << "a='" << a << "' b='" << b << "'";
  }
  for (double t : kThresholds) {
    const auto p = SimilarityPredicate::JaroWinkler(t);
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(p.Evaluate(a, b), JaroWinklerSimilarity(a, b) >= t)
          << "t=" << t << " a='" << a << "' b='" << b << "'";
    }
  }
}

TEST(PredicateTest, QGramPredicate) {
  auto p = SimilarityPredicate::QGram(0.5, 2);
  EXPECT_TRUE(p.Evaluate("abcde", "abcde"));
  EXPECT_FALSE(p.Evaluate("abcde", "vwxyz"));
}

TEST(PredicateTest, EqualityOperator) {
  EXPECT_EQ(SimilarityPredicate::Edit(2), SimilarityPredicate::Edit(2));
  EXPECT_FALSE(SimilarityPredicate::Edit(2) == SimilarityPredicate::Edit(3));
  EXPECT_FALSE(SimilarityPredicate::Edit(2) == SimilarityPredicate::Equals());
}

// Parameterized sweep: predicate evaluation agrees with the raw metric.
class EditPredicateSweep : public ::testing::TestWithParam<int> {};

TEST_P(EditPredicateSweep, AgreesWithBoundedDistance) {
  int k = GetParam();
  auto p = SimilarityPredicate::Edit(k);
  Rng rng(200 + static_cast<uint64_t>(k));
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.RandomWord(1 + rng.Index(10));
    std::string b = rng.RandomWord(1 + rng.Index(10));
    EXPECT_EQ(p.Evaluate(a, b), EditDistance(a, b) <= k);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, EditPredicateSweep,
                         ::testing::Values(0, 1, 2, 4, 7));

}  // namespace
}  // namespace similarity
}  // namespace uniclean
