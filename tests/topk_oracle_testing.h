#ifndef HIGNN_TESTS_TOPK_ORACLE_TESTING_H_
#define HIGNN_TESTS_TOPK_ORACLE_TESTING_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "predict/recommender.h"

namespace hignn {

// TopKByScore's order as an indirect partial_sort under an explicit
// comparator: score descending, NaN after every real score, ties
// (equal scores or NaN-vs-NaN) broken by ascending item id. For distinct
// items this is a strict total order, so it has one answer, which the
// shipped ranking must give item for item and score bit for score bit.
inline std::vector<Recommendation> OracleTopKByScore(
    const std::vector<int32_t>& items, const std::vector<float>& scores,
    int32_t k) {
  if (k <= 0) return {};
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t top = std::min<size_t>(static_cast<size_t>(k), order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(top),
                    order.end(), [&](size_t a, size_t b) {
                      const bool nan_a = std::isnan(scores[a]);
                      const bool nan_b = std::isnan(scores[b]);
                      if (nan_a != nan_b) return nan_b;
                      if (!nan_a) {
                        if (scores[a] > scores[b]) return true;
                        if (scores[a] < scores[b]) return false;
                      }
                      return items[a] < items[b];
                    });
  std::vector<Recommendation> out;
  out.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    out.push_back(Recommendation{items[order[i]], scores[order[i]]});
  }
  return out;
}

}  // namespace hignn

#endif  // HIGNN_TESTS_TOPK_ORACLE_TESTING_H_
