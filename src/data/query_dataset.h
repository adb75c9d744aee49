#ifndef HIGNN_DATA_QUERY_DATASET_H_
#define HIGNN_DATA_QUERY_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/topic_tree.h"
#include "graph/bipartite_graph.h"
#include "text/vocab.h"
#include "util/status.h"

namespace hignn {

/// \brief Knobs for the synthetic query-item click log (the Taobao #3
/// analogue of Section V).
struct QueryDatasetConfig {
  int32_t num_queries = 1500;
  int32_t num_items = 2500;
  double mean_clicks_per_query = 8.0;
  int32_t min_query_tokens = 2;
  int32_t max_query_tokens = 4;
  int32_t title_tokens = 6;
  double cross_topic_noise = 0.08;  ///< P(click lands outside the query topic)
  double broad_query_fraction = 0.3;  ///< queries attached one level above leaves
  /// Ontology categories (the rigid dictionary taxonomy of Sec. V-A).
  /// Items get a category correlated with — but not identical to — their
  /// planted topic, so intent topics crosscut the ontology; the paper's
  /// *diversity* metric counts topics whose items span > 2 categories.
  int32_t num_categories = 10;
  double category_alignment = 0.7;  ///< P(category follows the topic branch)
  /// Fraction of tokens drawn from a topic-agnostic generic pool
  /// ("cheap", "new", "free shipping", ...). Real queries and titles are
  /// full of such words; they make text-only clustering ambiguous, which
  /// is exactly why SHOAL needs the click graph's signal (Sec. V-D).
  double generic_token_fraction = 0.45;
  int32_t generic_vocabulary = 40;
  /// P(a token leaks from a uniformly random topic's vocabulary) —
  /// cross-topic homonyms/noise in titles.
  double cross_vocab_noise = 0.08;
  /// P(a topic-specific token is drawn one level up the tree) per step —
  /// sibling topics share ancestor words, adding polysemy.
  double word_walk_up = 0.45;
  TopicTree::Config tree;
  uint64_t seed = 11;

  static QueryDatasetConfig Taobao3();
  static QueryDatasetConfig Tiny();
};

/// \brief Synthetic query-item bipartite world with text attributes.
///
/// Every query and item carries ground-truth topic labels from the planted
/// TopicTree; queries are token bags drawn from their topic's word pool and
/// item titles from their leaf's pool, so word2vec can embed both into one
/// latent space exactly as Section V-B requires.
class QueryDataset {
 public:
  static Result<QueryDataset> Generate(const QueryDatasetConfig& config);

  const QueryDatasetConfig& config() const { return config_; }
  const TopicTree& tree() const { return tree_; }
  const Vocabulary& vocab() const { return vocab_; }

  int32_t num_queries() const { return config_.num_queries; }
  int32_t num_items() const { return config_.num_items; }

  const std::vector<std::vector<int32_t>>& query_tokens() const {
    return query_tokens_;
  }
  const std::vector<std::vector<int32_t>>& item_tokens() const {
    return item_tokens_;
  }

  /// \brief Ground-truth topic node per query (leaf or one level above).
  const std::vector<int32_t>& query_topic() const { return query_topic_; }

  /// \brief Ground-truth leaf per item.
  const std::vector<int32_t>& item_leaf() const { return item_leaf_; }

  /// \brief Ontology category per item (for the diversity metric).
  const std::vector<int32_t>& item_category() const { return item_category_; }

  /// \brief Click edges (weights = click counts), query-major.
  const std::vector<WeightedEdge>& edges() const { return edges_; }

  /// \brief Builds the bipartite click graph (left = queries).
  BipartiteGraph BuildGraph() const;

  /// \brief word2vec training corpus: item titles, raw queries, and
  /// query+clicked-title concatenations (which tie the two vocabular
  /// roles into one co-occurrence space).
  std::vector<std::vector<int32_t>> BuildCorpus() const;

  /// \brief Human-readable rendering for the case-study output.
  std::string QueryText(int32_t query) const;

 private:
  QueryDataset() = default;

  QueryDatasetConfig config_;
  TopicTree tree_;
  Vocabulary vocab_;
  std::vector<std::vector<int32_t>> query_tokens_;
  std::vector<std::vector<int32_t>> item_tokens_;
  std::vector<int32_t> query_topic_;
  std::vector<int32_t> item_leaf_;
  std::vector<int32_t> item_category_;
  std::vector<WeightedEdge> edges_;
};

}  // namespace hignn

#endif  // HIGNN_DATA_QUERY_DATASET_H_
