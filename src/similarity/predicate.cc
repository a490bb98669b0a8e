#include "similarity/predicate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "similarity/metrics.h"

namespace uniclean {
namespace similarity {

const char* PredicateKindToString(PredicateKind kind) {
  switch (kind) {
    case PredicateKind::kEquals:
      return "equals";
    case PredicateKind::kEditDistance:
      return "edit";
    case PredicateKind::kJaroWinkler:
      return "jaro_winkler";
    case PredicateKind::kQGramJaccard:
      return "qgram_jaccard";
  }
  return "unknown";
}

int SimilarityPredicate::BlockingEditBound(size_t value_length) const {
  switch (kind_) {
    case PredicateKind::kEquals:
      return 0;
    case PredicateKind::kEditDistance:
      return static_cast<int>(threshold_);
    case PredicateKind::kJaroWinkler:
    case PredicateKind::kQGramJaccard: {
      // Heuristic: a similarity of s roughly tolerates (1-s)*len edits.
      double slack = (1.0 - threshold_) * static_cast<double>(value_length);
      return std::max(1, static_cast<int>(std::ceil(slack)) + 1);
    }
  }
  return 1;
}

bool SimilarityPredicate::Evaluate(std::string_view a,
                                   std::string_view b) const {
  switch (kind_) {
    case PredicateKind::kEquals:
      return a == b;
    case PredicateKind::kEditDistance: {
      int k = static_cast<int>(threshold_);
      // Length pre-filter: the distance is at least the length gap, so
      // obviously-distant pairs never reach the banded DP.
      size_t lo = std::min(a.size(), b.size());
      size_t hi = std::max(a.size(), b.size());
      if (hi - lo > static_cast<size_t>(k)) return false;
      return BoundedEditDistance(a, b, k) <= k;
    }
    case PredicateKind::kJaroWinkler: {
      // Reject before computing when even the upper bound misses the
      // threshold (the common-character bound). The 1e-9 margin
      // keeps the reject exact under rounding: the bound and the similarity
      // are separate float computations, and a pair whose similarity equals
      // the bound in exact arithmetic (every shared character matched, no
      // transposition) must not be rejected because the bound rounded a few
      // ulps below the similarity.
      if (JaroWinklerUpperBound(a, b) + 1e-9 < threshold_) return false;
      return JaroWinklerSimilarity(a, b) >= threshold_;
    }
    case PredicateKind::kQGramJaccard:
      return QGramJaccard(a, b, qgram_size_) >= threshold_;
  }
  return false;
}

std::string SimilarityPredicate::ToString() const {
  char buf[64];
  switch (kind_) {
    case PredicateKind::kEquals:
      return "=";
    case PredicateKind::kEditDistance:
      std::snprintf(buf, sizeof(buf), "edit<=%d", static_cast<int>(threshold_));
      return buf;
    case PredicateKind::kJaroWinkler:
      std::snprintf(buf, sizeof(buf), "jw>=%.2f", threshold_);
      return buf;
    case PredicateKind::kQGramJaccard:
      std::snprintf(buf, sizeof(buf), "qgram%d>=%.2f", qgram_size_,
                    threshold_);
      return buf;
  }
  return "?";
}

}  // namespace similarity
}  // namespace uniclean
