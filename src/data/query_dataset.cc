#include "data/query_dataset.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

QueryDatasetConfig QueryDatasetConfig::Taobao3() {
  QueryDatasetConfig config;
  config.num_queries = 1500;
  config.num_items = 2500;
  config.mean_clicks_per_query = 8.0;
  config.tree.depth = 4;  // Paper: "we set the level number L = 4".
  config.tree.branching = 3;
  config.tree.latent_dim = 16;
  config.tree.words_per_topic = 6;
  config.tree.seed = 53;
  config.seed = 11;
  return config;
}

QueryDatasetConfig QueryDatasetConfig::Tiny() {
  QueryDatasetConfig config;
  config.num_queries = 120;
  config.num_items = 180;
  config.mean_clicks_per_query = 5.0;
  // Milder text ambiguity than the benchmark preset: unit tests use small
  // training budgets and need a recoverable planted structure.
  config.generic_token_fraction = 0.25;
  config.cross_vocab_noise = 0.04;
  config.word_walk_up = 0.3;
  config.tree.depth = 2;
  config.tree.branching = 3;
  config.tree.latent_dim = 8;
  config.tree.seed = 59;
  config.seed = 17;
  return config;
}

Result<QueryDataset> QueryDataset::Generate(const QueryDatasetConfig& config) {
  if (config.num_queries <= 0 || config.num_items <= 0) {
    return Status::InvalidArgument("query/item counts must be positive");
  }
  if (config.min_query_tokens < 1 ||
      config.max_query_tokens < config.min_query_tokens) {
    return Status::InvalidArgument("bad query token bounds");
  }

  QueryDataset dataset;
  dataset.config_ = config;
  HIGNN_ASSIGN_OR_RETURN(dataset.tree_, TopicTree::Generate(config.tree));
  const TopicTree& tree = dataset.tree_;

  Rng rng(config.seed);

  // Topic-agnostic generic words ("cheap", "hot", "w_gen_17", ...): they
  // appear in titles and queries of every topic and blur pure-text
  // clustering the way real marketplace boilerplate does.
  std::vector<int32_t> generic_word_ids;
  {
    static constexpr const char* kGenericWords[] = {
        "cheap",   "new",   "hot",     "sale",   "free",  "shipping",
        "best",    "2026",  "quality", "offer",  "brand", "official",
        "genuine", "bulk",  "deal",    "gift",   "style", "classic",
        "premium", "daily",
    };
    constexpr int32_t kNumGeneric =
        static_cast<int32_t>(sizeof(kGenericWords) / sizeof(kGenericWords[0]));
    for (int32_t g = 0; g < config.generic_vocabulary; ++g) {
      const std::string word =
          g < kNumGeneric ? kGenericWords[g] : StrFormat("generic%d", g);
      generic_word_ids.push_back(dataset.vocab_.GetOrAdd(word));
    }
  }

  // Pre-intern every topic word so sampling below is cheap.
  std::vector<std::vector<int32_t>> node_word_ids(tree.nodes().size());
  for (const auto& node : tree.nodes()) {
    for (const auto& word : node.words) {
      node_word_ids[static_cast<size_t>(node.id)].push_back(
          dataset.vocab_.GetOrAdd(word));
    }
  }
  // Pool of a node = its own words plus ancestors', own words favored.
  auto sample_tokens = [&](int32_t node_id, int32_t count) {
    std::vector<int32_t> out;
    out.reserve(static_cast<size_t>(count));
    for (int32_t t = 0; t < count; ++t) {
      if (!generic_word_ids.empty() &&
          rng.Bernoulli(config.generic_token_fraction)) {
        out.push_back(
            generic_word_ids[rng.UniformInt(generic_word_ids.size())]);
        continue;
      }
      int32_t source = node_id;
      if (rng.Bernoulli(config.cross_vocab_noise)) {
        // Cross-topic homonym: a word from an unrelated topic.
        source = static_cast<int32_t>(rng.UniformInt(tree.nodes().size()));
      }
      // Walk up the tree probabilistically: sibling topics share ancestor
      // words, so text alone cannot fully separate them.
      while (tree.node(source).parent >= 0 &&
             rng.Bernoulli(config.word_walk_up)) {
        source = tree.node(source).parent;
      }
      const auto& words = node_word_ids[static_cast<size_t>(source)];
      if (words.empty()) continue;
      out.push_back(words[rng.UniformInt(words.size())]);
    }
    if (out.empty()) {
      const auto& words = node_word_ids[static_cast<size_t>(node_id)];
      if (!words.empty()) out.push_back(words[0]);
    }
    return out;
  };

  // ---- Items --------------------------------------------------------------
  dataset.item_leaf_.resize(static_cast<size_t>(config.num_items));
  dataset.item_category_.resize(static_cast<size_t>(config.num_items));
  dataset.item_tokens_.resize(static_cast<size_t>(config.num_items));
  std::vector<std::vector<int32_t>> leaf_items(tree.nodes().size());
  for (int32_t i = 0; i < config.num_items; ++i) {
    const int32_t leaf = tree.SampleLeaf(rng);
    dataset.item_leaf_[static_cast<size_t>(i)] = leaf;
    // Ontology category: usually follows the level-2 branch of the topic
    // tree (hashed into the category space), otherwise random — intent
    // topics therefore crosscut the rigid ontology as in Sec. V-A.
    if (rng.Bernoulli(config.category_alignment)) {
      const int32_t branch = tree.AncestorAtLevel(leaf, std::min(2, tree.depth()));
      dataset.item_category_[static_cast<size_t>(i)] =
          branch % config.num_categories;
    } else {
      dataset.item_category_[static_cast<size_t>(i)] =
          static_cast<int32_t>(rng.UniformInt(config.num_categories));
    }
    dataset.item_tokens_[static_cast<size_t>(i)] =
        sample_tokens(leaf, config.title_tokens);
    leaf_items[static_cast<size_t>(leaf)].push_back(i);
  }

  // ---- Queries -------------------------------------------------------------
  dataset.query_topic_.resize(static_cast<size_t>(config.num_queries));
  dataset.query_tokens_.resize(static_cast<size_t>(config.num_queries));
  for (int32_t q = 0; q < config.num_queries; ++q) {
    int32_t topic = tree.SampleLeaf(rng);
    if (rng.Bernoulli(config.broad_query_fraction) &&
        tree.node(topic).parent >= 0) {
      topic = tree.node(topic).parent;  // Broad-intent query.
    }
    dataset.query_topic_[static_cast<size_t>(q)] = topic;
    const int32_t span =
        config.max_query_tokens - config.min_query_tokens + 1;
    const int32_t count =
        config.min_query_tokens + static_cast<int32_t>(rng.UniformInt(span));
    dataset.query_tokens_[static_cast<size_t>(q)] =
        sample_tokens(topic, count);
  }

  // ---- Edges ---------------------------------------------------------------
  // A query clicks items inside its topic subtree; a small fraction of
  // clicks leak to random items (exploration / noisy intent).
  auto leaves_under = [&](int32_t node_id) {
    std::vector<int32_t> result;
    for (int32_t leaf : tree.leaves()) {
      if (tree.IsAncestor(node_id, leaf)) result.push_back(leaf);
    }
    return result;
  };
  std::vector<std::vector<int32_t>> subtree_cache(tree.nodes().size());
  for (int32_t q = 0; q < config.num_queries; ++q) {
    const int32_t topic = dataset.query_topic_[static_cast<size_t>(q)];
    auto& subtree = subtree_cache[static_cast<size_t>(topic)];
    if (subtree.empty()) subtree = leaves_under(topic);

    const int clicks = rng.Poisson(config.mean_clicks_per_query);
    for (int c = 0; c < clicks; ++c) {
      int32_t item = -1;
      if (!rng.Bernoulli(config.cross_topic_noise) && !subtree.empty()) {
        const int32_t leaf = subtree[rng.UniformInt(subtree.size())];
        const auto& pool = leaf_items[static_cast<size_t>(leaf)];
        if (!pool.empty()) item = pool[rng.UniformInt(pool.size())];
      }
      if (item < 0) {
        item = static_cast<int32_t>(rng.UniformInt(config.num_items));
      }
      dataset.edges_.push_back(WeightedEdge{q, item, 1.0f});
    }
  }

  // Count token frequencies for word2vec's unigram table.
  for (const auto& tokens : dataset.item_tokens_) {
    for (int32_t t : tokens) dataset.vocab_.CountOccurrence(t);
  }
  for (const auto& tokens : dataset.query_tokens_) {
    for (int32_t t : tokens) dataset.vocab_.CountOccurrence(t);
  }
  return dataset;
}

BipartiteGraph QueryDataset::BuildGraph() const {
  BipartiteGraphBuilder builder(config_.num_queries, config_.num_items);
  const Status status = builder.AddEdges(edges_);
  HIGNN_CHECK(status.ok()) << status.ToString();
  return builder.Build();
}

std::vector<std::vector<int32_t>> QueryDataset::BuildCorpus() const {
  std::vector<std::vector<int32_t>> corpus;
  corpus.reserve(item_tokens_.size() + query_tokens_.size() + edges_.size());
  for (const auto& tokens : item_tokens_) corpus.push_back(tokens);
  for (const auto& tokens : query_tokens_) corpus.push_back(tokens);
  // Query + clicked-title sentences put both roles in one context window.
  for (const auto& edge : edges_) {
    std::vector<int32_t> sentence = query_tokens_[static_cast<size_t>(edge.u)];
    const auto& title = item_tokens_[static_cast<size_t>(edge.i)];
    sentence.insert(sentence.end(), title.begin(), title.end());
    corpus.push_back(std::move(sentence));
  }
  return corpus;
}

std::string QueryDataset::QueryText(int32_t query) const {
  HIGNN_CHECK_GE(query, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(query), query_tokens_.size());
  std::vector<std::string> words;
  for (int32_t t : query_tokens_[static_cast<size_t>(query)]) {
    words.push_back(vocab_.TokenOf(t));
  }
  return Join(words, " ");
}

}  // namespace hignn
