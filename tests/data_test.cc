#include "data/synthetic.h"

#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/query_dataset.h"
#include "data/topic_tree.h"

namespace hignn {
namespace {

// --------------------------------------------------------------- TopicTree --

TEST(TopicTreeTest, ShapeMatchesConfig) {
  TopicTree::Config config;
  config.depth = 3;
  config.branching = 4;
  auto tree = TopicTree::Generate(config);
  ASSERT_TRUE(tree.ok());
  std::vector<int32_t> per_level(4, 0);
  for (const auto& node : tree.value().nodes()) {
    ASSERT_GE(node.level, 0);
    ASSERT_LT(node.level, 4);
    ++per_level[static_cast<size_t>(node.level)];
  }
  EXPECT_EQ(per_level, (std::vector<int32_t>{1, 4, 16, 64}));
  EXPECT_EQ(tree.value().leaves().size(), 64u);
  EXPECT_EQ(tree.value().nodes().size(), 1u + 4u + 16u + 64u);
}

TEST(TopicTreeTest, AncestorChains) {
  TopicTree::Config config;
  config.depth = 3;
  config.branching = 2;
  auto tree = TopicTree::Generate(config).ValueOrDie();
  for (int32_t leaf : tree.leaves()) {
    EXPECT_EQ(tree.AncestorAtLevel(leaf, 0), 0);
    const int32_t mid = tree.AncestorAtLevel(leaf, 2);
    EXPECT_EQ(tree.node(mid).level, 2);
    EXPECT_TRUE(tree.IsAncestor(mid, leaf));
    EXPECT_TRUE(tree.IsAncestor(0, leaf));
    EXPECT_FALSE(tree.IsAncestor(leaf, mid));
    // Ancestor at the node's own level is the node itself.
    EXPECT_EQ(tree.AncestorAtLevel(leaf, 3), leaf);
  }
}

TEST(TopicTreeTest, SiblingsCloserThanCousins) {
  TopicTree::Config config;
  config.depth = 2;
  config.branching = 3;
  config.latent_dim = 24;
  config.seed = 99;
  auto tree = TopicTree::Generate(config).ValueOrDie();

  auto dist = [&](int32_t a, int32_t b) {
    double total = 0;
    for (size_t d = 0; d < tree.node(a).latent.size(); ++d) {
      const double diff = tree.node(a).latent[d] - tree.node(b).latent[d];
      total += diff * diff;
    }
    return total;
  };
  // Average sibling (same parent) vs cross-branch leaf distance.
  double sibling = 0.0;
  double cousin = 0.0;
  int sibling_count = 0;
  int cousin_count = 0;
  for (int32_t a : tree.leaves()) {
    for (int32_t b : tree.leaves()) {
      if (a >= b) continue;
      if (tree.node(a).parent == tree.node(b).parent) {
        sibling += dist(a, b);
        ++sibling_count;
      } else {
        cousin += dist(a, b);
        ++cousin_count;
      }
    }
  }
  EXPECT_LT(sibling / sibling_count, cousin / cousin_count);
}

TEST(TopicTreeTest, RejectsBadConfig) {
  TopicTree::Config config;
  config.depth = 0;
  EXPECT_FALSE(TopicTree::Generate(config).ok());
}

TEST(TopicTreeTest, ConversionBiasVaries) {
  TopicTree::Config config;
  config.depth = 2;
  config.branching = 4;
  auto tree = TopicTree::Generate(config).ValueOrDie();
  std::set<float> biases;
  for (int32_t leaf : tree.leaves()) {
    biases.insert(tree.node(leaf).conversion_bias);
  }
  EXPECT_GT(biases.size(), 10u);  // essentially all distinct
}

// ------------------------------------------------------- SyntheticDataset --

TEST(SyntheticDatasetTest, TinyGeneratesConsistentWorld) {
  auto dataset = SyntheticDataset::Generate(SyntheticConfig::Tiny());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const SyntheticDataset& ds = dataset.value();
  EXPECT_EQ(ds.num_users(), 200);
  EXPECT_EQ(ds.num_items(), 100);
  EXPECT_EQ(static_cast<int32_t>(ds.profiles().size()), 200);
  EXPECT_EQ(static_cast<int32_t>(ds.items().size()), 100);
  EXPECT_EQ(ds.user_features().rows(), 200u);
  EXPECT_EQ(ds.item_features().rows(), 100u);
  EXPECT_GT(ds.interactions().size(), 100u);

  for (const auto& interaction : ds.interactions()) {
    EXPECT_GE(interaction.user, 0);
    EXPECT_LT(interaction.user, 200);
    EXPECT_GE(interaction.item, 0);
    EXPECT_LT(interaction.item, 100);
    EXPECT_GE(interaction.day, 0);
    EXPECT_LT(interaction.day, 4);
  }
  for (const auto& item : ds.items()) {
    EXPECT_GE(item.leaf_topic, 0);
    EXPECT_GT(item.price, 0.0f);
    EXPECT_GT(item.popularity, 0.0f);
  }
  for (const auto& prefs : ds.user_prefs()) {
    EXPECT_GE(prefs.size(), 1u);
    float total = 0;
    for (const auto& [leaf, w] : prefs) {
      EXPECT_EQ(ds.tree().node(leaf).level, ds.tree().depth());
      total += w;
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(SyntheticDatasetTest, DeterministicForSeed) {
  auto a = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  auto b = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  ASSERT_EQ(a.interactions().size(), b.interactions().size());
  for (size_t k = 0; k < a.interactions().size(); ++k) {
    EXPECT_EQ(a.interactions()[k].user, b.interactions()[k].user);
    EXPECT_EQ(a.interactions()[k].item, b.interactions()[k].item);
    EXPECT_EQ(a.interactions()[k].purchased, b.interactions()[k].purchased);
  }
}

TEST(SyntheticDatasetTest, AffinityHigherForPreferredItems) {
  auto ds = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  double preferred = 0.0;
  int preferred_count = 0;
  double other = 0.0;
  int other_count = 0;
  for (int32_t u = 0; u < ds.num_users(); ++u) {
    std::unordered_set<int32_t> pref_leaves;
    for (const auto& [leaf, w] : ds.user_prefs()[static_cast<size_t>(u)]) {
      (void)w;
      pref_leaves.insert(leaf);
    }
    for (int32_t i = 0; i < ds.num_items(); i += 7) {
      const double affinity = ds.TrueAffinity(u, i);
      if (pref_leaves.count(ds.items()[static_cast<size_t>(i)].leaf_topic)) {
        preferred += affinity;
        ++preferred_count;
      } else {
        other += affinity;
        ++other_count;
      }
    }
  }
  ASSERT_GT(preferred_count, 0);
  ASSERT_GT(other_count, 0);
  EXPECT_GT(preferred / preferred_count, other / other_count + 0.2);
}

TEST(SyntheticDatasetTest, TrainGraphExcludesTestDay) {
  auto ds = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = ds.BuildTrainGraph();
  EXPECT_TRUE(graph.Validate().ok());
  int64_t train_clicks = 0;
  for (const auto& interaction : ds.interactions()) {
    if (interaction.day < ds.num_train_days()) ++train_clicks;
  }
  EXPECT_DOUBLE_EQ(graph.TotalWeight(), static_cast<double>(train_clicks));
  EXPECT_LT(graph.num_edges(), train_clicks + 1);  // duplicates merged
}

TEST(SyntheticDatasetTest, CountersMatchTrainInteractions) {
  auto ds = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  int64_t clicks = 0;
  int64_t buys = 0;
  for (const auto& counters : ds.item_counters()) {
    clicks += counters[0];
    buys += counters[1];
  }
  int64_t expected_clicks = 0;
  int64_t expected_buys = 0;
  for (const auto& interaction : ds.interactions()) {
    if (interaction.day >= ds.num_train_days()) continue;
    ++expected_clicks;
    if (interaction.purchased) ++expected_buys;
  }
  EXPECT_EQ(clicks, expected_clicks);
  EXPECT_EQ(buys, expected_buys);
}

TEST(SyntheticDatasetTest, Taobao2SparserThanTaobao1) {
  SyntheticConfig c1 = SyntheticConfig::Taobao1();
  c1.num_users = 500;
  c1.num_items = 200;
  SyntheticConfig c2 = SyntheticConfig::Taobao2();
  c2.num_users = 500;
  c2.num_items = 200;
  auto d1 = SyntheticDataset::Generate(c1).ValueOrDie();
  auto d2 = SyntheticDataset::Generate(c2).ValueOrDie();
  EXPECT_LT(GraphShape(d2.BuildTrainGraph()).Density(),
            GraphShape(d1.BuildTrainGraph()).Density());
}

TEST(SyntheticDatasetTest, RejectsBadConfig) {
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.num_users = 0;
  EXPECT_FALSE(SyntheticDataset::Generate(config).ok());
  config = SyntheticConfig::Tiny();
  config.num_days = 1;
  EXPECT_FALSE(SyntheticDataset::Generate(config).ok());
  config = SyntheticConfig::Tiny();
  config.prefs_per_user = 0;
  EXPECT_FALSE(SyntheticDataset::Generate(config).ok());
}

// ------------------------------------------------------------ BuildSamples --

TEST(BuildSamplesTest, DaySplitIsExact) {
  auto ds = SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const SampleSet samples = BuildSamples(ds, /*replicate=*/false, 1);
  int64_t expected_test = 0;
  int64_t expected_train = 0;
  for (const auto& interaction : ds.interactions()) {
    if (interaction.day < ds.num_train_days()) {
      ++expected_train;
    } else {
      ++expected_test;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(samples.train.size()), expected_train);
  EXPECT_EQ(static_cast<int64_t>(samples.test.size()), expected_test);
  EXPECT_EQ(samples.train_positives + samples.train_negatives,
            expected_train);
}

TEST(BuildSamplesTest, ReplicationReachesOneToThree) {
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.purchase_bias = -4.0;  // few positives -> replication kicks in
  auto ds = SyntheticDataset::Generate(config).ValueOrDie();
  const SampleSet plain = BuildSamples(ds, false, 1);
  const SampleSet replicated = BuildSamples(ds, true, 1);
  ASSERT_GT(plain.train_negatives, plain.train_positives * 3);
  EXPECT_EQ(replicated.train_negatives, plain.train_negatives);
  EXPECT_GE(replicated.train_positives, plain.train_positives);
  EXPECT_GE(replicated.train_positives, replicated.train_negatives / 3);
  // Only positives are replicated.
  for (const auto& sample : replicated.train) {
    EXPECT_TRUE(sample.label == 0.0f || sample.label == 1.0f);
  }
  // Test set untouched.
  EXPECT_EQ(replicated.test.size(), plain.test.size());
}

// ------------------------------------------------------------ QueryDataset --

TEST(QueryDatasetTest, TinyGeneratesConsistentWorld) {
  auto dataset = QueryDataset::Generate(QueryDatasetConfig::Tiny());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const QueryDataset& ds = dataset.value();
  EXPECT_EQ(ds.num_queries(), 120);
  EXPECT_EQ(ds.num_items(), 180);
  EXPECT_GT(ds.edges().size(), 100u);
  EXPECT_GT(ds.vocab().size(), 10);

  for (int32_t q = 0; q < ds.num_queries(); ++q) {
    EXPECT_FALSE(ds.query_tokens()[static_cast<size_t>(q)].empty());
    const int32_t topic = ds.query_topic()[static_cast<size_t>(q)];
    EXPECT_GE(ds.tree().node(topic).level, ds.tree().depth() - 1);
  }
  for (int32_t i = 0; i < ds.num_items(); ++i) {
    EXPECT_FALSE(ds.item_tokens()[static_cast<size_t>(i)].empty());
    EXPECT_EQ(ds.tree().node(ds.item_leaf()[static_cast<size_t>(i)]).level,
              ds.tree().depth());
    EXPECT_GE(ds.item_category()[static_cast<size_t>(i)], 0);
    EXPECT_LT(ds.item_category()[static_cast<size_t>(i)],
              ds.config().num_categories);
  }
}

TEST(QueryDatasetTest, EdgesMostlyTopicConsistent) {
  auto ds = QueryDataset::Generate(QueryDatasetConfig::Tiny()).ValueOrDie();
  int64_t consistent = 0;
  for (const auto& edge : ds.edges()) {
    const int32_t topic = ds.query_topic()[static_cast<size_t>(edge.u)];
    const int32_t leaf = ds.item_leaf()[static_cast<size_t>(edge.i)];
    if (ds.tree().IsAncestor(topic, leaf)) ++consistent;
  }
  EXPECT_GT(static_cast<double>(consistent) / ds.edges().size(), 0.8);
}

TEST(QueryDatasetTest, GraphAndCorpus) {
  auto ds = QueryDataset::Generate(QueryDatasetConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = ds.BuildGraph();
  EXPECT_TRUE(graph.Validate().ok());
  EXPECT_EQ(graph.num_left(), 120);
  EXPECT_EQ(graph.num_right(), 180);
  const auto corpus = ds.BuildCorpus();
  EXPECT_EQ(corpus.size(),
            ds.item_tokens().size() + ds.query_tokens().size() +
                ds.edges().size());
}

TEST(QueryDatasetTest, TextRendering) {
  auto ds = QueryDataset::Generate(QueryDatasetConfig::Tiny()).ValueOrDie();
  EXPECT_FALSE(ds.QueryText(0).empty());
}

}  // namespace
}  // namespace hignn
