#include "eval/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace hignn {
namespace {

TEST(AucTest, PerfectRanking) {
  auto auc = ComputeAuc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 1.0);
}

TEST(AucTest, InvertedRanking) {
  auto auc = ComputeAuc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.0);
}

TEST(AucTest, RandomScoresNearHalf) {
  // All scores equal -> ties everywhere -> AUC exactly 0.5 by midranks.
  auto auc = ComputeAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.5);
}

TEST(AucTest, KnownPartialValue) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}.
  // Pairs: (0.8>0.6), (0.8>0.2), (0.4<0.6), (0.4>0.2) -> 3/4.
  auto auc = ComputeAuc({0.8f, 0.4f, 0.6f, 0.2f}, {1, 1, 0, 0});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.75);
}

TEST(AucTest, TieBetweenClassesCountsHalf) {
  // pos {0.5}, neg {0.5, 0.1}: pairs (tie=0.5) + (win=1) -> 0.75.
  auto auc = ComputeAuc({0.5f, 0.5f, 0.1f}, {1, 0, 0});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.75);
}

TEST(AucTest, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(ComputeAuc({}, {}).ok());
  EXPECT_FALSE(ComputeAuc({0.5f}, {1.0f, 0.0f}).ok());
  EXPECT_FALSE(ComputeAuc({0.5f, 0.6f}, {1, 1}).ok());  // one class
  EXPECT_FALSE(ComputeAuc({0.5f, 0.6f}, {0, 0}).ok());
}

TEST(AucTest, InvariantToMonotoneTransform) {
  std::vector<float> scores = {0.1f, 0.7f, 0.3f, 0.9f, 0.5f};
  std::vector<float> labels = {0, 1, 0, 1, 1};
  auto base = ComputeAuc(scores, labels).ValueOrDie();
  std::vector<float> transformed;
  for (float s : scores) transformed.push_back(100.0f * s + 7.0f);
  EXPECT_DOUBLE_EQ(ComputeAuc(transformed, labels).ValueOrDie(), base);
}

}  // namespace
}  // namespace hignn
