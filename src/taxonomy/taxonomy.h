#ifndef HIGNN_TAXONOMY_TAXONOMY_H_
#define HIGNN_TAXONOMY_TAXONOMY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/hignn.h"
#include "data/query_dataset.h"
#include "util/status.h"

namespace hignn {

/// \brief One granularity of a topic-driven taxonomy: a flat clustering of
/// the original items (and queries) into topics.
struct TaxonomyLevel {
  std::vector<int32_t> item_assignment;   ///< original item -> topic id
  std::vector<int32_t> query_assignment;  ///< original query -> topic id
  int32_t num_topics = 0;
};

/// \brief A multi-level topic-driven taxonomy (Section V): levels[0] is
/// the finest clustering, each subsequent level is coarser. Topic
/// descriptions, when matched, name each topic with its most
/// representative query (Sec. V-C.2).
struct Taxonomy {
  std::vector<TaxonomyLevel> levels;
  /// descriptions[l][t] — representative query for topic t of level l
  /// (empty until TopicDescriptionMatcher runs).
  std::vector<std::vector<std::string>> descriptions;

  int32_t num_levels() const { return static_cast<int32_t>(levels.size()); }

  /// \brief Parent topic (at level + 1) of each topic at `level`, by
  /// majority vote of member items. -1 for empty topics.
  std::vector<int32_t> ParentsOfLevel(int32_t level) const;

  /// \brief Items belonging to each topic of a level.
  std::vector<std::vector<int32_t>> TopicItems(int32_t level) const;
};

/// \brief Reads HiGNN's cluster hierarchy on a query-item graph as a
/// taxonomy: the item-side clusters at each level are the topics, and
/// each query sits under the topic that receives most of its click
/// weight in `graph` (Sec. V-C.1). `graph` is the query-item graph the
/// model was fitted on; InvalidArgument when its counts differ from the
/// model's level 1.
Result<Taxonomy> BuildTaxonomyFromHignn(const HignnModel& model,
                                        const BipartiteGraph& graph);

/// \brief Topic description matching (Sec. V-C.2, Eqs. 14-16): scores each
/// candidate query q for topic t_k by
/// r(q, t_k) = sqrt(pop(q, t_k) * con(q, t_k)), where popularity counts
/// q's tokens inside the topic's item titles (Eq. 15) and concentration
/// softmax-normalizes the BM25 relevance of q against the concatenated
/// titles of every topic at the level (Eq. 16).
class TopicDescriptionMatcher {
 public:
  explicit TopicDescriptionMatcher(const QueryDataset* dataset);

  /// \brief Fills taxonomy->descriptions for every level.
  Status MatchAll(Taxonomy* taxonomy) const;

  /// \brief Descriptions for one level (index into taxonomy.levels).
  Result<std::vector<std::string>> MatchLevel(const TaxonomyLevel& level) const;

  /// \brief Exposed for tests: the representativeness r(q, t_k).
  /// `topic_rel` must hold rel(q, D_j) for every topic j of the level.
  static double Representativeness(double popularity, double concentration);

 private:
  const QueryDataset* dataset_;
};

/// \brief Renders a taxonomy subtree rooted at `topic` of `level` as an
/// indented tree (Fig. 5 style) using the matched descriptions.
std::string RenderTaxonomySubtree(const Taxonomy& taxonomy,
                                  const QueryDataset& dataset, int32_t level,
                                  int32_t topic, int32_t max_children = 5,
                                  int32_t max_depth = 3);

}  // namespace hignn

#endif  // HIGNN_TAXONOMY_TAXONOMY_H_
