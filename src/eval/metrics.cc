#include "eval/metrics.h"

#include <algorithm>
#include <numeric>

namespace hignn {

Result<double> ComputeAuc(const std::vector<float>& scores,
                          const std::vector<float>& labels) {
  if (scores.size() != labels.size()) {
    return Status::InvalidArgument("scores/labels size mismatch");
  }
  if (scores.empty()) return Status::InvalidArgument("empty input");

  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] < scores[b];
  });

  // Midranks for tied scores, then the Mann-Whitney U statistic.
  double positive_rank_sum = 0.0;
  int64_t positives = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = (static_cast<double>(i) + static_cast<double>(j) +
                            1.0) /
                           2.0;  // 1-based average rank of the tie group
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0.5f) {
        positive_rank_sum += midrank;
        ++positives;
      }
    }
    i = j;
  }
  const int64_t negatives = static_cast<int64_t>(n) - positives;
  if (positives == 0 || negatives == 0) {
    return Status::FailedPrecondition(
        "AUC undefined: both classes must be present");
  }
  const double u = positive_rank_sum -
                   static_cast<double>(positives) *
                       (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

}  // namespace hignn
