#include "predict/recommender.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace hignn {

namespace {

// Orders scores as TopKByScore ranks them, ascending: descending score, -0
// folded into +0, and every NaN (any sign or payload) after every real
// score, tied with the other NaNs.
uint32_t ScoreRankKey(float score) {
  if (std::isnan(score)) return std::numeric_limits<uint32_t>::max();
  const uint32_t bits = score == 0.0f ? 0u : std::bit_cast<uint32_t>(score);
  // Negative scores keep their bits (a larger magnitude ranks later);
  // positive ones invert them below the sign bit (a larger value ranks
  // earlier, and every positive before every negative).
  return (bits >> 31) != 0 ? bits : ~bits & 0x7fffffffu;
}

}  // namespace

std::vector<Recommendation> TopKByScore(const std::vector<int32_t>& items,
                                        const std::vector<float>& scores,
                                        int32_t k) {
  HIGNN_CHECK_EQ(items.size(), scores.size());
  if (k <= 0) return {};
  // Explicit total order: score descending, NaN after every real score,
  // ties (including NaN-vs-NaN) broken by ascending item id, so the top is
  // the same for any candidate order, which is what the index-vs-exact
  // byte-for-byte agreement on ties rests on. Each candidate becomes a
  // (key, position) pair: the key packs that order, the score's rank key
  // above the item with its sign bit flipped (so signed ids ascend as
  // unsigned), and the position orders duplicate items, which makes the
  // order strict.
  std::vector<std::pair<uint64_t, size_t>> ranked(items.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    const uint32_t item = static_cast<uint32_t>(items[i]) ^ 0x80000000u;
    const uint64_t key =
        (static_cast<uint64_t>(ScoreRankKey(scores[i])) << 32) | item;
    ranked[i] = {key, i};
  }
  const size_t top = std::min<size_t>(static_cast<size_t>(k), ranked.size());
  const auto top_end = ranked.begin() + static_cast<long>(top);
  std::nth_element(ranked.begin(), top_end, ranked.end());
  std::sort(ranked.begin(), top_end);
  std::vector<Recommendation> out;
  out.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    const size_t at = ranked[i].second;
    out.push_back(Recommendation{items[at], scores[at]});
  }
  return out;
}

TopKRecommender::TopKRecommender(CvrModel* model,
                                 const CvrFeatureBuilder* features,
                                 int32_t num_items)
    : model_(model), features_(features), num_items_(num_items) {
  HIGNN_CHECK(model_ != nullptr);
  HIGNN_CHECK(features_ != nullptr);
  HIGNN_CHECK_GT(num_items_, 0);
}

Result<std::vector<Recommendation>> TopKRecommender::Recommend(
    int32_t user, int32_t k, const std::vector<int32_t>* exclude) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (user < 0) return Status::InvalidArgument("negative user id");

  std::unordered_set<int32_t> excluded;
  if (exclude != nullptr) excluded.insert(exclude->begin(), exclude->end());

  std::vector<LabeledSample> candidates;
  candidates.reserve(static_cast<size_t>(num_items_));
  for (int32_t item = 0; item < num_items_; ++item) {
    if (excluded.count(item)) continue;
    candidates.push_back(LabeledSample{user, item, 0.0f});
  }
  if (candidates.empty()) return std::vector<Recommendation>{};

  HIGNN_ASSIGN_OR_RETURN(std::vector<float> scores,
                         model_->Predict(*features_, candidates));

  std::vector<int32_t> items;
  items.reserve(candidates.size());
  for (const LabeledSample& candidate : candidates) {
    items.push_back(candidate.item);
  }
  return TopKByScore(items, scores, k);
}

Result<TopKMetrics> EvaluateTopK(const TopKRecommender& recommender,
                                 const SampleSet& samples, int32_t k,
                                 int64_t max_users) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");

  // Ground truth: per-user purchased items on the test day.
  std::map<int32_t, std::set<int32_t>> purchases;
  for (const LabeledSample& sample : samples.test) {
    if (sample.label > 0.5f) purchases[sample.user].insert(sample.item);
  }
  if (purchases.empty()) {
    return Status::FailedPrecondition("no test purchases to evaluate");
  }

  TopKMetrics metrics;
  for (const auto& [user, items] : purchases) {
    if (max_users > 0 && metrics.users_evaluated >= max_users) break;
    HIGNN_ASSIGN_OR_RETURN(std::vector<Recommendation> top,
                           recommender.Recommend(user, k));
    int64_t hits = 0;
    double dcg = 0.0;
    double first_hit_rank = 0.0;
    for (size_t rank = 0; rank < top.size(); ++rank) {
      if (!items.count(top[rank].item)) continue;
      ++hits;
      dcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
      if (first_hit_rank == 0.0) {
        first_hit_rank = static_cast<double>(rank) + 1.0;
      }
    }
    double ideal = 0.0;
    const size_t ideal_hits = std::min<size_t>(
        top.size(), items.size());
    for (size_t rank = 0; rank < ideal_hits; ++rank) {
      ideal += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
    }
    metrics.hit_rate += hits > 0 ? 1.0 : 0.0;
    metrics.precision += static_cast<double>(hits) / static_cast<double>(k);
    metrics.recall +=
        static_cast<double>(hits) / static_cast<double>(items.size());
    metrics.ndcg += ideal > 0.0 ? dcg / ideal : 0.0;
    metrics.mrr += first_hit_rank > 0.0 ? 1.0 / first_hit_rank : 0.0;
    ++metrics.users_evaluated;
  }
  HIGNN_CHECK_GT(metrics.users_evaluated, 0);
  const double n = static_cast<double>(metrics.users_evaluated);
  metrics.hit_rate /= n;
  metrics.precision /= n;
  metrics.recall /= n;
  metrics.ndcg /= n;
  metrics.mrr /= n;
  return metrics;
}

}  // namespace hignn
