#include "taxonomy/taxonomy.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "taxonomy/metrics.h"
#include "taxonomy/pipeline.h"
#include "taxonomy/shoal.h"

namespace hignn {
namespace {

TaxonomyPipelineConfig SmallPipelineConfig() {
  TaxonomyPipelineConfig config;
  config.hignn.levels = 2;
  config.hignn.sage.dims = {8, 8};
  config.hignn.sage.fanouts = {5, 3};
  config.hignn.sage.train_steps = 40;
  config.hignn.min_clusters = 2;
  config.word2vec.dim = 12;
  config.word2vec.epochs = 2;
  return config;
}

class TaxonomyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new QueryDataset(
        QueryDataset::Generate(QueryDatasetConfig::Tiny()).ValueOrDie());
    hignn_run_ = new TaxonomyRun(
        RunHignnTaxonomy(*dataset_, SmallPipelineConfig()).ValueOrDie());
    shoal_run_ = new TaxonomyRun(
        RunShoalTaxonomy(*dataset_, SmallPipelineConfig(),
                         hignn_run_->level_topics)
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete shoal_run_;
    delete hignn_run_;
    delete dataset_;
    shoal_run_ = nullptr;
    hignn_run_ = nullptr;
    dataset_ = nullptr;
  }

  static QueryDataset* dataset_;
  static TaxonomyRun* hignn_run_;
  static TaxonomyRun* shoal_run_;
};

QueryDataset* TaxonomyFixture::dataset_ = nullptr;
TaxonomyRun* TaxonomyFixture::hignn_run_ = nullptr;
TaxonomyRun* TaxonomyFixture::shoal_run_ = nullptr;

TEST_F(TaxonomyFixture, LevelsAndAssignmentsWellFormed) {
  for (const TaxonomyRun* run : {hignn_run_, shoal_run_}) {
    const Taxonomy& taxonomy = run->taxonomy;
    ASSERT_EQ(taxonomy.num_levels(), 2);
    for (const auto& level : taxonomy.levels) {
      EXPECT_EQ(level.item_assignment.size(),
                static_cast<size_t>(dataset_->num_items()));
      EXPECT_EQ(level.query_assignment.size(),
                static_cast<size_t>(dataset_->num_queries()));
      for (int32_t a : level.item_assignment) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, level.num_topics);
      }
      for (int32_t a : level.query_assignment) {
        EXPECT_GE(a, -1);  // -1 = query with no clicks
        EXPECT_LT(a, level.num_topics);
      }
    }
  }
}

TEST_F(TaxonomyFixture, ShoalUsesRequestedTopicCounts) {
  for (int32_t l = 0; l < shoal_run_->taxonomy.num_levels(); ++l) {
    EXPECT_EQ(shoal_run_->taxonomy.levels[static_cast<size_t>(l)].num_topics,
              hignn_run_->level_topics[static_cast<size_t>(l)]);
  }
}

TEST_F(TaxonomyFixture, ParentsByMajorityVote) {
  const Taxonomy& taxonomy = hignn_run_->taxonomy;
  const auto parents = taxonomy.ParentsOfLevel(0);
  ASSERT_EQ(parents.size(),
            static_cast<size_t>(taxonomy.levels[0].num_topics));
  const auto members = taxonomy.TopicItems(0);
  for (int32_t t = 0; t < taxonomy.levels[0].num_topics; ++t) {
    if (members[static_cast<size_t>(t)].empty()) {
      EXPECT_EQ(parents[static_cast<size_t>(t)], -1);
      continue;
    }
    ASSERT_GE(parents[static_cast<size_t>(t)], 0);
    ASSERT_LT(parents[static_cast<size_t>(t)],
              taxonomy.levels[1].num_topics);
    // The parent must hold at least one of the topic's items.
    int32_t hits = 0;
    for (int32_t item : members[static_cast<size_t>(t)]) {
      if (taxonomy.levels[1].item_assignment[static_cast<size_t>(item)] ==
          parents[static_cast<size_t>(t)]) {
        ++hits;
      }
    }
    EXPECT_GT(hits, 0);
  }
}

TEST_F(TaxonomyFixture, TopicItemsPartitionItems) {
  const auto members = hignn_run_->taxonomy.TopicItems(0);
  int64_t total = 0;
  for (const auto& topic : members) total += topic.size();
  EXPECT_EQ(total, dataset_->num_items());
}

TEST_F(TaxonomyFixture, DescriptionsMatchedForEveryTopic) {
  const Taxonomy& taxonomy = hignn_run_->taxonomy;
  ASSERT_EQ(taxonomy.descriptions.size(),
            static_cast<size_t>(taxonomy.num_levels()));
  for (int32_t l = 0; l < taxonomy.num_levels(); ++l) {
    ASSERT_EQ(taxonomy.descriptions[static_cast<size_t>(l)].size(),
              static_cast<size_t>(
                  taxonomy.levels[static_cast<size_t>(l)].num_topics));
    for (const auto& description :
         taxonomy.descriptions[static_cast<size_t>(l)]) {
      EXPECT_FALSE(description.empty());
    }
  }
}

TEST_F(TaxonomyFixture, DescriptionsComeFromTopicRelatedQueries) {
  // For a sample of topics the matched description must be the text of
  // some query that actually clicks into the topic.
  const Taxonomy& taxonomy = hignn_run_->taxonomy;
  const auto& level = taxonomy.levels[0];
  std::set<std::string> all_queries;
  for (int32_t q = 0; q < dataset_->num_queries(); ++q) {
    all_queries.insert(dataset_->QueryText(q));
  }
  int32_t named = 0;
  for (const auto& description : taxonomy.descriptions[0]) {
    if (description != "(unnamed topic)") {
      EXPECT_TRUE(all_queries.count(description)) << description;
      ++named;
    }
  }
  EXPECT_GT(named, level.num_topics / 2);
}

TEST_F(TaxonomyFixture, EvaluationScoresInRange) {
  TaxonomyEvalConfig eval;
  eval.sample_topics = 20;
  eval.items_per_topic = 20;
  for (const TaxonomyRun* run : {hignn_run_, shoal_run_}) {
    auto quality = EvaluateTaxonomy(*dataset_, run->taxonomy, eval);
    ASSERT_TRUE(quality.ok()) << quality.status().ToString();
    EXPECT_GT(quality.value().accuracy, 0.0);
    EXPECT_LE(quality.value().accuracy, 1.0);
    EXPECT_GE(quality.value().diversity, 0.0);
    EXPECT_LE(quality.value().diversity, 1.0);
    EXPECT_GE(quality.value().finest_nmi, 0.0);
    EXPECT_LE(quality.value().finest_nmi, 1.0 + 1e-9);
    EXPECT_EQ(quality.value().average_levels, 2.0);
  }
}

TEST_F(TaxonomyFixture, HignnRecoversPlantedStructure) {
  // The finest HiGNN clustering should be meaningfully aligned with the
  // planted leaves (well above a random baseline).
  auto quality =
      EvaluateTaxonomy(*dataset_, hignn_run_->taxonomy, TaxonomyEvalConfig{});
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality.value().finest_nmi, 0.3);
  EXPECT_GT(quality.value().accuracy, 0.5);
}

TEST_F(TaxonomyFixture, RenderProducesTree) {
  const std::string tree = RenderTaxonomySubtree(
      hignn_run_->taxonomy, *dataset_, /*level=*/1, /*topic=*/0);
  EXPECT_NE(tree.find("[L2]"), std::string::npos);
  EXPECT_NE(tree.find("items"), std::string::npos);
}

TEST(TaxonomyUnitTest, NmiKnownValues) {
  // Identical labelings -> 1; independent -> ~0.
  std::vector<int32_t> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(NormalizedMutualInformation(a, a), 1.0, 1e-9);
  std::vector<int32_t> relabeled = {5, 5, 9, 9, 7, 7};
  EXPECT_NEAR(NormalizedMutualInformation(a, relabeled), 1.0, 1e-9);
  std::vector<int32_t> constant(6, 0);
  EXPECT_NEAR(NormalizedMutualInformation(a, constant), 0.0, 1e-9);
}

TEST(TaxonomyUnitTest, RepresentativenessIsGeometricMean) {
  EXPECT_DOUBLE_EQ(TopicDescriptionMatcher::Representativeness(0.25, 1.0),
                   0.5);
  EXPECT_DOUBLE_EQ(TopicDescriptionMatcher::Representativeness(0.0, 0.9),
                   0.0);
  EXPECT_DOUBLE_EQ(TopicDescriptionMatcher::Representativeness(0.5, 0.0),
                   0.0);
}

// A model keeps only level 1's graph shape, so the caller passes the
// fitted graph for the query votes, and a graph of other counts is
// rejected.
TEST(TaxonomyUnitTest, BuildFromHignnNeedsTheFittedGraph) {
  BipartiteGraphBuilder builder(3, 2);
  ASSERT_TRUE(builder.AddEdge(0, 0, 2.0f).ok());
  ASSERT_TRUE(builder.AddEdge(1, 1, 1.0f).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, 1.0f).ok());
  const BipartiteGraph graph = builder.Build();
  HignnLevel level;
  level.graph = graph;
  level.left_embeddings = Matrix(3, 2);
  level.right_embeddings = Matrix(2, 2);
  level.left_assignment = {0, 1, 1};
  level.right_assignment = {0, 1};
  level.num_left_clusters = 2;
  level.num_right_clusters = 2;
  std::vector<HignnLevel> levels;
  levels.push_back(std::move(level));
  const HignnModel model = HignnModel::FromLevels(std::move(levels));

  auto taxonomy = BuildTaxonomyFromHignn(model, graph);
  ASSERT_TRUE(taxonomy.ok()) << taxonomy.status().ToString();
  EXPECT_EQ(taxonomy.value().levels[0].item_assignment,
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(taxonomy.value().levels[0].query_assignment,
            (std::vector<int32_t>{0, 1, 1}));

  BipartiteGraphBuilder other(3, 2);
  ASSERT_TRUE(other.AddEdge(0, 0, 1.0f).ok());
  EXPECT_EQ(BuildTaxonomyFromHignn(model, other.Build()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TaxonomyUnitTest, ShoalRejectsIncreasingCounts) {
  auto dataset =
      QueryDataset::Generate(QueryDatasetConfig::Tiny()).ValueOrDie();
  Word2VecConfig w2v;
  w2v.dim = 8;
  w2v.epochs = 1;
  auto word2vec =
      Word2Vec::Train(dataset.BuildCorpus(), dataset.vocab(), w2v)
          .ValueOrDie();
  EXPECT_FALSE(BuildTaxonomyShoal(dataset, word2vec, {4, 8}).ok());
  EXPECT_FALSE(BuildTaxonomyShoal(dataset, word2vec, {}).ok());
  EXPECT_TRUE(BuildTaxonomyShoal(dataset, word2vec, {8, 4}).ok());
}

}  // namespace
}  // namespace hignn
