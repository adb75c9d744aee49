#ifndef HIGNN_PREDICT_FEATURES_H_
#define HIGNN_PREDICT_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace hignn {

/// \brief Which blocks enter the prediction network's input (Fig. 2).
///
/// The paper's baselines are exactly ablations of this spec:
///   HiGNN     {L, L}   hierarchical user preference + item attractiveness
///   HUP-only  {L, 0}   user hierarchy only
///   HIA-only  {0, L}   item hierarchy only
///   GE        {1, 1}   flat (single-level) graph embeddings
///   CGNN      {2, 0}   two user levels (community + individual), no item
///   DIN       {0, 0}   no graph features at all
/// All variants keep the user profile and item statistic blocks.
struct FeatureSpec {
  int32_t user_levels = 0;  ///< hierarchy levels of z^H_u to include
  int32_t item_levels = 0;  ///< hierarchy levels of z^H_i to include
  bool use_profile = true;
  bool use_item_stats = true;
  /// Appends per-level dot products <z^l_u, z^l_i> for the levels both
  /// sides share. MLPs learn multiplicative interactions from raw
  /// concatenation very slowly; handing the network the matching scores
  /// directly lets it exploit the embedding geometry (same spirit as
  /// NCF's GMF path). On by default; no effect unless both user and item
  /// blocks are present.
  bool use_match_features = true;

  static FeatureSpec HiGnn(int32_t levels) {
    return {levels, levels, true, true, true};
  }
  static FeatureSpec HupOnly(int32_t levels) {
    return {levels, 0, true, true, true};
  }
  static FeatureSpec HiaOnly(int32_t levels) {
    return {0, levels, true, true, true};
  }
  static FeatureSpec Ge() { return {1, 1, true, true, true}; }
  static FeatureSpec Cgnn() { return {2, 0, true, true, true}; }
  static FeatureSpec Din() { return {0, 0, true, true, true}; }
};

/// \brief Column widths of a CVR feature row, whose blocks follow one
/// another in this order:
///
///   user z^H | item z^H | match dots | user tail | item tail
///
/// The user block comes first, so the rows of a one-user batch share their
/// leading columns; MatMulSerial multiplies those once per batch. Offline
/// rows (CvrFeatureBuilder), serving rows (EmbeddingStore) and cluster
/// pseudo-rows (ClusterTreeIndex) all come out of AssembleFeatureRows.
struct FeatureRowLayout {
  int32_t level_dim = 0;        ///< d: width of one hierarchy level
  int32_t user_block_cols = 0;  ///< user_levels * d
  int32_t item_block_cols = 0;  ///< item_levels * d
  int32_t match_levels = 0;     ///< one dot <z^l_u, z^l_i> per level
  int32_t user_tail_dim = 0;    ///< profile one-hots + user counters
  int32_t item_tail_dim = 0;    ///< item counters + metadata features
  int32_t feature_dim = 0;      ///< the sum of the widths above
};

/// \brief One candidate's item-side sources: its z^H block
/// (item_block_cols floats) and its tail (item_tail_dim floats). A source
/// whose width is 0 may be null.
struct ItemSource {
  const float* block = nullptr;
  const float* tail = nullptr;
};

/// \brief Writes `count` rows of one user into `rows` (count x
/// feature_dim, row-major), each float once: row i holds the user's block,
/// items[i]'s block, the match dots, the user's tail and items[i]'s tail.
/// Match dot l is the double-precision sum over c ascending of
/// user_block[l*d + c] * item_block[l*d + c], rounded to float once
/// (simd::MatchDots, which takes 4 rows per register from 4 rows up). A
/// user source whose width is 0 may be null.
void AssembleFeatureRows(const FeatureRowLayout& layout,
                         const float* user_block, const float* user_tail,
                         const ItemSource* items, size_t count, float* rows);

/// \brief Assembles per-sample input rows for the CVR network: the chosen
/// hierarchical embedding blocks plus user-profile one-hots and item
/// statistics.
class CvrFeatureBuilder {
 public:
  /// \param model  trained hierarchy; may be null iff both user_levels and
  ///   item_levels are 0 (the DIN baseline).
  static Result<CvrFeatureBuilder> Create(const SyntheticDataset* dataset,
                                          const HignnModel* model,
                                          const FeatureSpec& spec);

  int32_t dim() const { return layout_.feature_dim; }
  const FeatureSpec& spec() const { return spec_; }
  const FeatureRowLayout& layout() const { return layout_; }

  /// \brief One (num_samples x dim) matrix for a batch of samples.
  Matrix BuildBatch(const std::vector<LabeledSample>& samples,
                    size_t begin, size_t end) const;

  /// \brief Convenience over the full span.
  Matrix BuildAll(const std::vector<LabeledSample>& samples) const {
    return BuildBatch(samples, 0, samples.size());
  }

 private:
  CvrFeatureBuilder(const SyntheticDataset* dataset, const HignnModel* model,
                    const FeatureSpec& spec);

  void FillRow(const LabeledSample& sample, float* row) const;

  const SyntheticDataset* dataset_;
  const HignnModel* model_;
  FeatureSpec spec_;
  Matrix user_hier_;  ///< cached hierarchical embeddings (may be empty)
  Matrix item_hier_;
  FeatureRowLayout layout_;
};

}  // namespace hignn

#endif  // HIGNN_PREDICT_FEATURES_H_
