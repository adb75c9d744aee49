#include "taxonomy/taxonomy.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "text/bm25.h"
#include "util/logging.h"
#include "util/ordered.h"
#include "util/string_util.h"

namespace hignn {

std::vector<int32_t> Taxonomy::ParentsOfLevel(int32_t level) const {
  HIGNN_CHECK_GE(level, 0);
  HIGNN_CHECK_LT(level + 1, num_levels());
  const TaxonomyLevel& fine = levels[static_cast<size_t>(level)];
  const TaxonomyLevel& coarse = levels[static_cast<size_t>(level + 1)];
  // votes[t][p] — how many items of fine topic t live in coarse topic p.
  std::vector<std::unordered_map<int32_t, int32_t>> votes(
      static_cast<size_t>(fine.num_topics));
  for (size_t item = 0; item < fine.item_assignment.size(); ++item) {
    const int32_t t = fine.item_assignment[item];
    const int32_t p = coarse.item_assignment[item];
    ++votes[static_cast<size_t>(t)][p];
  }
  std::vector<int32_t> parents(static_cast<size_t>(fine.num_topics), -1);
  for (int32_t t = 0; t < fine.num_topics; ++t) {
    // Deterministic argmax: ties go to the smallest parent id instead of
    // whichever entry hashed first.
    parents[static_cast<size_t>(t)] =
        MaxValueEntry(votes[static_cast<size_t>(t)], {-1, 0}).first;
  }
  return parents;
}

std::vector<std::vector<int32_t>> Taxonomy::TopicItems(int32_t level) const {
  HIGNN_CHECK_GE(level, 0);
  HIGNN_CHECK_LT(level, num_levels());
  const TaxonomyLevel& l = levels[static_cast<size_t>(level)];
  std::vector<std::vector<int32_t>> out(static_cast<size_t>(l.num_topics));
  for (size_t item = 0; item < l.item_assignment.size(); ++item) {
    out[static_cast<size_t>(l.item_assignment[item])].push_back(
        static_cast<int32_t>(item));
  }
  return out;
}

Result<Taxonomy> BuildTaxonomyFromHignn(const HignnModel& model,
                                        const BipartiteGraph& graph) {
  if (model.num_levels() < 1) {
    return Status::InvalidArgument("model has no levels");
  }
  if (GraphShape(graph) != model.levels().front().graph) {
    return Status::InvalidArgument(
        "graph counts differ from the model's level 1");
  }
  const int32_t num_items = graph.num_right();
  const int32_t num_queries = graph.num_left();

  Taxonomy taxonomy;
  for (int32_t l = 1; l <= model.num_levels(); ++l) {
    TaxonomyLevel level;
    level.num_topics =
        model.levels()[static_cast<size_t>(l - 1)].num_right_clusters;
    level.item_assignment.resize(static_cast<size_t>(num_items));
    for (int32_t i = 0; i < num_items; ++i) {
      level.item_assignment[static_cast<size_t>(i)] =
          model.RightClusterAt(i, l);
    }
    // Queries attach to the *item* topic receiving the majority of their
    // click weight (topics are item clusters; the query-side clusters are
    // internal to the GNN hierarchy). Unclicked queries get -1.
    level.query_assignment.assign(static_cast<size_t>(num_queries), -1);
    for (int32_t q = 0; q < num_queries; ++q) {
      const auto span = graph.LeftNeighbors(q);
      std::unordered_map<int32_t, float> votes;
      for (size_t k = 0; k < span.size; ++k) {
        votes[model.RightClusterAt(span.ids[k], l)] += span.weights[k];
      }
      if (!votes.empty()) {
        level.query_assignment[static_cast<size_t>(q)] =
            MaxValueEntry(votes).first;
      }
    }
    taxonomy.levels.push_back(std::move(level));
  }
  return taxonomy;
}

TopicDescriptionMatcher::TopicDescriptionMatcher(const QueryDataset* dataset)
    : dataset_(dataset) {
  HIGNN_CHECK(dataset_ != nullptr);
}

double TopicDescriptionMatcher::Representativeness(double popularity,
                                                   double concentration) {
  if (popularity <= 0.0 || concentration <= 0.0) return 0.0;
  return std::sqrt(popularity * concentration);  // Eq. 14
}

Result<std::vector<std::string>> TopicDescriptionMatcher::MatchLevel(
    const TaxonomyLevel& level) const {
  const auto& item_tokens = dataset_->item_tokens();
  if (level.item_assignment.size() != item_tokens.size()) {
    return Status::InvalidArgument("level does not match dataset items");
  }
  const int32_t num_topics = level.num_topics;

  // Concatenated titles D_k per topic + per-topic token counts.
  std::vector<std::vector<int32_t>> topic_doc(
      static_cast<size_t>(num_topics));
  for (size_t item = 0; item < item_tokens.size(); ++item) {
    auto& doc = topic_doc[static_cast<size_t>(level.item_assignment[item])];
    doc.insert(doc.end(), item_tokens[item].begin(), item_tokens[item].end());
  }
  Bm25Index bm25;
  for (const auto& doc : topic_doc) bm25.AddDocument(doc);
  bm25.Finalize();

  // Token multiset per topic for the popularity term (Eq. 15).
  std::vector<std::unordered_map<int32_t, int64_t>> topic_tf(
      static_cast<size_t>(num_topics));
  for (int32_t t = 0; t < num_topics; ++t) {
    for (int32_t token : topic_doc[static_cast<size_t>(t)]) {
      ++topic_tf[static_cast<size_t>(t)][token];
    }
  }

  // Candidate queries per topic: queries clicking into the topic's items.
  std::vector<std::vector<int32_t>> topic_candidates(
      static_cast<size_t>(num_topics));
  {
    std::vector<std::unordered_map<int32_t, float>> weights(
        static_cast<size_t>(num_topics));
    for (const auto& edge : dataset_->edges()) {
      const int32_t t =
          level.item_assignment[static_cast<size_t>(edge.i)];
      weights[static_cast<size_t>(t)][edge.u] += edge.weight;
    }
    // Candidate order feeds the best-query argmax below (strict '>', so
    // the first of equals wins) — extract in sorted query order.
    for (int32_t t = 0; t < num_topics; ++t) {
      for (const auto& [q, w] :
           SortedEntries(weights[static_cast<size_t>(t)])) {
        (void)w;
        topic_candidates[static_cast<size_t>(t)].push_back(q);
      }
    }
  }

  // Concentration denominators: for every candidate query, the softmax
  // normalizer over all topics of the level (Eq. 16). Computed once per
  // distinct query.
  std::unordered_map<int32_t, double> denom;
  std::unordered_map<int32_t, std::vector<double>> rels;
  for (int32_t t = 0; t < num_topics; ++t) {
    for (int32_t q : topic_candidates[static_cast<size_t>(t)]) {
      if (rels.count(q)) continue;
      std::vector<double> rel(static_cast<size_t>(num_topics));
      double total = 1.0;  // the "1 +" of Eq. 16
      for (int32_t j = 0; j < num_topics; ++j) {
        const double r =
            bm25.Score(dataset_->query_tokens()[static_cast<size_t>(q)], j);
        rel[static_cast<size_t>(j)] = r;
        total += std::exp(std::min(r, 30.0));
      }
      denom[q] = total;
      rels[q] = std::move(rel);
    }
  }

  std::vector<std::string> descriptions(static_cast<size_t>(num_topics));
  for (int32_t t = 0; t < num_topics; ++t) {
    const auto& tf = topic_tf[static_cast<size_t>(t)];
    int64_t topic_tokens = 0;
    // hignn-lint: allow(unordered-iter) order-insensitive int64 count sum
    for (const auto& [token, count] : tf) {
      (void)token;
      topic_tokens += count;
    }
    double best_score = 0.0;
    int32_t best_query = -1;
    for (int32_t q : topic_candidates[static_cast<size_t>(t)]) {
      // pop(q, t_k): share of the topic's tokens covered by q's tokens.
      int64_t hits = 0;
      for (int32_t token : dataset_->query_tokens()[static_cast<size_t>(q)]) {
        auto it = tf.find(token);
        if (it != tf.end()) hits += it->second;
      }
      const double pop =
          topic_tokens > 0
              ? std::log(static_cast<double>(hits) + 1.0) /
                    std::log(static_cast<double>(topic_tokens) + 1.0)
              : 0.0;  // Eq. 15
      const double con =
          std::exp(std::min(rels[q][static_cast<size_t>(t)], 30.0)) /
          denom[q];  // Eq. 16
      const double score = Representativeness(pop, con);
      if (score > best_score) {
        best_score = score;
        best_query = q;
      }
    }
    descriptions[static_cast<size_t>(t)] =
        best_query >= 0 ? dataset_->QueryText(best_query) : "(unnamed topic)";
  }
  return descriptions;
}

Status TopicDescriptionMatcher::MatchAll(Taxonomy* taxonomy) const {
  if (taxonomy == nullptr) return Status::InvalidArgument("null taxonomy");
  taxonomy->descriptions.clear();
  for (const auto& level : taxonomy->levels) {
    HIGNN_ASSIGN_OR_RETURN(std::vector<std::string> descriptions,
                           MatchLevel(level));
    taxonomy->descriptions.push_back(std::move(descriptions));
  }
  return Status::OK();
}

namespace {

void RenderSubtree(const Taxonomy& taxonomy, const QueryDataset& dataset,
                   int32_t level, int32_t topic, int32_t max_children,
                   int32_t depth_left, int32_t indent, std::ostringstream& os,
                   const std::vector<std::vector<std::vector<int32_t>>>&
                       children_by_level) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const char* label =
      !taxonomy.descriptions.empty() &&
              level < static_cast<int32_t>(taxonomy.descriptions.size()) &&
              topic <
                  static_cast<int32_t>(
                      taxonomy.descriptions[static_cast<size_t>(level)].size())
          ? taxonomy.descriptions[static_cast<size_t>(level)]
                                 [static_cast<size_t>(topic)]
                .c_str()
          : "(topic)";
  int64_t item_count = 0;
  for (int32_t assigned :
       taxonomy.levels[static_cast<size_t>(level)].item_assignment) {
    if (assigned == topic) ++item_count;
  }
  (void)dataset;
  os << pad << "- [L" << (level + 1) << "] '" << label << "' ("
     << item_count << " items)\n";
  if (depth_left <= 0 || level == 0) return;
  const auto& children =
      children_by_level[static_cast<size_t>(level - 1)]
                       [static_cast<size_t>(topic)];
  int32_t shown = 0;
  for (int32_t child : children) {
    if (shown++ >= max_children) {
      os << pad << "  ... (" << children.size() - max_children
         << " more sub-topics)\n";
      break;
    }
    RenderSubtree(taxonomy, dataset, level - 1, child, max_children,
                  depth_left - 1, indent + 1, os, children_by_level);
  }
}

}  // namespace

std::string RenderTaxonomySubtree(const Taxonomy& taxonomy,
                                  const QueryDataset& dataset, int32_t level,
                                  int32_t topic, int32_t max_children,
                                  int32_t max_depth) {
  HIGNN_CHECK_GE(level, 0);
  HIGNN_CHECK_LT(level, taxonomy.num_levels());
  // children_by_level[l][parent_topic] = topics of level l whose parent
  // (at level l+1) is parent_topic.
  std::vector<std::vector<std::vector<int32_t>>> children_by_level;
  for (int32_t l = 0; l + 1 < taxonomy.num_levels(); ++l) {
    const std::vector<int32_t> parents = taxonomy.ParentsOfLevel(l);
    std::vector<std::vector<int32_t>> children(static_cast<size_t>(
        taxonomy.levels[static_cast<size_t>(l + 1)].num_topics));
    for (int32_t t = 0; t < static_cast<int32_t>(parents.size()); ++t) {
      if (parents[static_cast<size_t>(t)] >= 0) {
        children[static_cast<size_t>(parents[static_cast<size_t>(t)])]
            .push_back(t);
      }
    }
    children_by_level.push_back(std::move(children));
  }
  std::ostringstream os;
  RenderSubtree(taxonomy, dataset, level, topic, max_children, max_depth, 0,
                os, children_by_level);
  return os.str();
}

}  // namespace hignn
