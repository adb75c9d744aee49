#include "core/hignn.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/coarsen.h"

namespace hignn {
namespace {

HignnConfig SmallHignnConfig(int32_t levels) {
  HignnConfig config;
  config.levels = levels;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {5, 3};
  config.sage.train_steps = 25;
  config.sage.batch_size = 64;
  config.alpha = 4.0;
  config.min_clusters = 2;
  config.seed = 77;
  return config;
}

class HignnFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new SyntheticDataset(
        SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie());
    graph_ = new BipartiteGraph(dataset_->BuildTrainGraph());
    model_ = new HignnModel(
        Hignn::Fit(*graph_, dataset_->user_features(),
                   dataset_->item_features(), SmallHignnConfig(3))
            .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete graph_;
    delete dataset_;
    model_ = nullptr;
    graph_ = nullptr;
    dataset_ = nullptr;
  }

  // G^0 .. G^{L-1}, the graph each level trained on: the input graph,
  // then each level's coarsening re-derived from its embeddings and
  // assignments (a model keeps only the shapes).
  static std::vector<BipartiteGraph> LevelGraphs() {
    std::vector<BipartiteGraph> graphs = {*graph_};
    for (int32_t l = 1; l < model_->num_levels(); ++l) {
      const HignnLevel& level = model_->levels()[static_cast<size_t>(l - 1)];
      graphs.push_back(
          CoarsenBipartiteGraph(graphs.back(), level.left_embeddings,
                                level.right_embeddings, level.left_assignment,
                                level.num_left_clusters,
                                level.right_assignment,
                                level.num_right_clusters)
              .ValueOrDie()
              .graph);
    }
    return graphs;
  }

  static SyntheticDataset* dataset_;
  static BipartiteGraph* graph_;
  static HignnModel* model_;
};

SyntheticDataset* HignnFixture::dataset_ = nullptr;
BipartiteGraph* HignnFixture::graph_ = nullptr;
HignnModel* HignnFixture::model_ = nullptr;

TEST_F(HignnFixture, ProducesRequestedLevels) {
  EXPECT_EQ(model_->num_levels(), 3);
  EXPECT_EQ(model_->level_dim(), 8);
  EXPECT_EQ(model_->hierarchical_dim(), 24);
}

TEST_F(HignnFixture, LevelOneCoversOriginalGraph) {
  const HignnLevel& level = model_->levels().front();
  EXPECT_EQ(level.graph, GraphShape(*graph_));
  EXPECT_EQ(level.graph.num_left, dataset_->num_users());
  EXPECT_EQ(level.graph.num_right, dataset_->num_items());
  EXPECT_EQ(level.left_embeddings.rows(),
            static_cast<size_t>(dataset_->num_users()));
  EXPECT_EQ(level.right_embeddings.rows(),
            static_cast<size_t>(dataset_->num_items()));
}

TEST_F(HignnFixture, GraphsShrinkMonotonically) {
  const std::vector<BipartiteGraph> graphs = LevelGraphs();
  for (int32_t l = 1; l < model_->num_levels(); ++l) {
    const auto& finer = model_->levels()[static_cast<size_t>(l - 1)];
    const auto& coarser = model_->levels()[static_cast<size_t>(l)];
    EXPECT_LT(coarser.graph.num_left, finer.graph.num_left);
    EXPECT_LT(coarser.graph.num_right, finer.graph.num_right);
    // Coarsened vertex counts equal the previous level's cluster counts.
    EXPECT_EQ(coarser.graph.num_left, finer.num_left_clusters);
    EXPECT_EQ(coarser.graph.num_right, finer.num_right_clusters);
    // The re-derived coarse graph is the one the level recorded, and
    // merging vertices never adds edges.
    const BipartiteGraph& graph = graphs[static_cast<size_t>(l)];
    const BipartiteGraph& below = graphs[static_cast<size_t>(l - 1)];
    EXPECT_EQ(GraphShape(graph), coarser.graph);
    EXPECT_TRUE(graph.Validate().ok());
    EXPECT_LE(graph.num_edges(), below.num_edges());
  }
}

TEST_F(HignnFixture, CoarseningPreservesTotalWeight) {
  const std::vector<BipartiteGraph> graphs = LevelGraphs();
  for (size_t l = 1; l < graphs.size(); ++l) {
    EXPECT_NEAR(graphs[l].TotalWeight(), graphs[l - 1].TotalWeight(), 1.0);
  }
}

TEST_F(HignnFixture, ClusterChainsAreConsistent) {
  for (int32_t u = 0; u < dataset_->num_users(); u += 13) {
    int32_t previous = u;
    for (int32_t level = 1; level <= model_->num_levels(); ++level) {
      const int32_t cluster = model_->LeftClusterAt(u, level);
      const auto& assignment =
          model_->levels()[static_cast<size_t>(level - 1)].left_assignment;
      EXPECT_EQ(cluster, assignment[static_cast<size_t>(previous)]);
      EXPECT_GE(cluster, 0);
      EXPECT_LT(cluster,
                model_->levels()[static_cast<size_t>(level - 1)]
                    .num_left_clusters);
      previous = cluster;
    }
  }
}

TEST_F(HignnFixture, HierarchicalEmbeddingConcatenatesLevels) {
  const Matrix all = model_->AllHierarchicalLeft();
  ASSERT_EQ(all.rows(), static_cast<size_t>(dataset_->num_users()));
  ASSERT_EQ(all.cols(), 24u);
  // Block l of z^H_u is level l's embedding of u's chain: the vertex
  // itself at level 1, then its level-(l-1) cluster.
  for (int32_t u = 0; u < dataset_->num_users(); u += 29) {
    for (int32_t l = 1; l <= model_->num_levels(); ++l) {
      const int32_t vertex = l == 1 ? u : model_->LeftClusterAt(u, l - 1);
      const Matrix& level =
          model_->levels()[static_cast<size_t>(l - 1)].left_embeddings;
      for (size_t c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(all(static_cast<size_t>(u),
                            static_cast<size_t>(l - 1) * 8 + c),
                        level(static_cast<size_t>(vertex), c))
            << "user " << u << " level " << l;
      }
    }
  }
}

TEST_F(HignnFixture, AllHierarchicalMatricesMatchPerVertexQueries) {
  const Matrix all = model_->AllHierarchicalLeft();
  const Matrix right = model_->AllHierarchicalRight();
  ASSERT_EQ(right.rows(), static_cast<size_t>(dataset_->num_items()));
  ASSERT_EQ(right.cols(), 24u);
  // Item rows follow RightClusterAt's chain the same way.
  for (int32_t i = 0; i < dataset_->num_items(); i += 13) {
    for (int32_t l = 1; l <= model_->num_levels(); ++l) {
      const int32_t vertex = l == 1 ? i : model_->RightClusterAt(i, l - 1);
      const Matrix& level =
          model_->levels()[static_cast<size_t>(l - 1)].right_embeddings;
      for (size_t c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(right(static_cast<size_t>(i),
                              static_cast<size_t>(l - 1) * 8 + c),
                        level(static_cast<size_t>(vertex), c))
            << "item " << i << " level " << l;
      }
    }
  }

  // Truncated variant keeps the leading blocks.
  const Matrix truncated = model_->AllHierarchicalLeft(2);
  ASSERT_EQ(truncated.cols(), 16u);
  for (size_t c = 0; c < 16; ++c) {
    EXPECT_FLOAT_EQ(truncated(3, c), all(3, c));
  }
}

TEST_F(HignnFixture, MembersOfSameClusterShareCoarseEmbedding) {
  // Users in the same level-1 cluster must share identical level-2 blocks.
  std::set<int32_t> seen;
  const Matrix all = model_->AllHierarchicalLeft();
  for (int32_t a = 0; a < dataset_->num_users() && seen.size() < 5; ++a) {
    for (int32_t b = a + 1; b < dataset_->num_users(); ++b) {
      if (model_->LeftClusterAt(a, 1) != model_->LeftClusterAt(b, 1)) continue;
      for (size_t c = 8; c < 24; ++c) {
        ASSERT_FLOAT_EQ(all(static_cast<size_t>(a), c),
                        all(static_cast<size_t>(b), c));
      }
      seen.insert(a);
      break;
    }
  }
  EXPECT_GE(seen.size(), 1u);
}

TEST(HignnTest, SingleLevelWorks) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  auto model = Hignn::Fit(dataset.BuildTrainGraph(), dataset.user_features(),
                          dataset.item_features(), SmallHignnConfig(1));
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().num_levels(), 1);
  EXPECT_EQ(model.value().hierarchical_dim(), 8);
}

TEST(HignnTest, RejectsBadInputs) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  HignnConfig config = SmallHignnConfig(0);
  EXPECT_FALSE(Hignn::Fit(graph, dataset.user_features(),
                          dataset.item_features(), config)
                   .ok());
  // More levels than any model may hold: nothing could load the result.
  config = SmallHignnConfig(kMaxLevels + 1);
  const auto too_deep = Hignn::Fit(graph, dataset.user_features(),
                                   dataset.item_features(), config);
  EXPECT_EQ(too_deep.status().code(), StatusCode::kInvalidArgument);
  // Empty graph.
  BipartiteGraphBuilder empty(3, 3);
  EXPECT_FALSE(Hignn::Fit(empty.Build(), Matrix(3, 2), Matrix(3, 2),
                          SmallHignnConfig(1))
                   .ok());
}

TEST(HignnTest, ChSelectionProducesValidClusterCounts) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  HignnConfig config = SmallHignnConfig(2);
  config.select_k_by_ch = true;
  auto model = Hignn::Fit(dataset.BuildTrainGraph(), dataset.user_features(),
                          dataset.item_features(), config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const auto& level : model.value().levels()) {
    EXPECT_GE(level.num_left_clusters, config.min_clusters);
    EXPECT_GE(level.num_right_clusters, config.min_clusters);
    EXPECT_LE(level.num_left_clusters, level.graph.num_left);
  }
}

TEST(HignnTest, DeterministicForSeed) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  auto a = Hignn::Fit(graph, dataset.user_features(),
                      dataset.item_features(), SmallHignnConfig(2))
               .ValueOrDie();
  auto b = Hignn::Fit(graph, dataset.user_features(),
                      dataset.item_features(), SmallHignnConfig(2))
               .ValueOrDie();
  EXPECT_TRUE(AllClose(a.AllHierarchicalLeft(), b.AllHierarchicalLeft()));
}

}  // namespace
}  // namespace hignn
