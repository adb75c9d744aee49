#ifndef HIGNN_SERVE_INDEX_CLUSTER_TREE_H_
#define HIGNN_SERVE_INDEX_CLUSTER_TREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/matrix.h"
#include "predict/features.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {

/// \brief One level of the routing tree. Arrays are either borrowed
/// from a store reader (zero-copy, like every other store section) or
/// owned (construction at export time); the `owned_*` vectors are empty
/// in the borrowed case.
struct ClusterTreeLevel {
  int32_t num_clusters = 0;
  int32_t num_children = 0;
  /// Per-cluster centroid of the member items' z^H item block / item
  /// tail: num_clusters x item_block_cols and num_clusters x
  /// item_tail_dim, row-major.
  const float* centroid_block = nullptr;
  const float* centroid_tail = nullptr;
  /// Child CSR, children sorted ascending within each cluster. Level 1
  /// children are original item ids; level l > 1 children are level
  /// l-1 cluster ids. child_offsets has num_clusters + 1 entries.
  const int32_t* child_offsets = nullptr;
  const int32_t* child_ids = nullptr;

  std::vector<float> owned_block;
  std::vector<float> owned_tail;
  std::vector<int32_t> owned_offsets;
  std::vector<int32_t> owned_ids;
};

/// \brief The hierarchy-as-index: HiGNN's own cluster chains turned
/// into a beam-search routing tree for serving top-k (ROADMAP
/// "Hierarchy-as-index retrieval").
///
/// Construction is a pure, deterministic function of the store's item
/// blocks, item tails, and right-side cluster chains: per level, each
/// cluster's representative is the centroid of its member items'
/// embedding block and tail (double-precision accumulation in
/// ascending item order, rounded to float once), and the child lists
/// are sorted ascending. Building twice from the same arrays therefore
/// produces byte-identical trees.
///
/// Retrieval (SelectLeaves) is beam-search descent: score the user
/// against every level-L centroid through the same CVR head the leaves
/// use, keep the best `beam` clusters (score descending, ties by
/// ascending cluster id — the TopKByScore total order), descend into
/// their children, repeat, and return the surviving leaf items. The
/// traversal order is fixed (survivors sorted ascending before
/// descent), so results are fully deterministic for any fixed beam and
/// thread count. Exactness knob: callers treat beam <= 0 as infinity
/// and bypass the index entirely (PredictionEngine::RecommendTopK),
/// which is bitwise identical to the linear scan.
class ClusterTreeIndex {
 public:
  /// \brief Everything construction/validation needs, as raw views
  /// into either the exporting model's matrices or a loaded store.
  /// `right_chain` is level-major: chain[(level-1) * num_items + item]
  /// is the level-`level` cluster of `item`, level in [1, chain_levels].
  struct Source {
    int32_t num_items = 0;
    int32_t chain_levels = 0;
    const float* item_block = nullptr;  ///< num_items x item_block_cols
    const float* item_tail = nullptr;   ///< num_items x item_tail_dim
    const int32_t* right_chain = nullptr;
    /// The exporting store's row layout, so pseudo-item rows come out of
    /// the same AssembleFeatureRows as its item rows.
    FeatureRowLayout geometry;
  };

  /// \brief Per-search telemetry (observation-only; never feeds back
  /// into scores).
  struct SearchStats {
    int64_t nodes_scored = 0;    ///< internal centroids run through the MLP
    int64_t leaves_selected = 0; ///< surviving items handed to brute force
    int32_t levels_descended = 0;
  };

  /// \brief Scores a (count x feature_dim) matrix of assembled pseudo
  /// rows; the engine binds this to the store model's const
  /// CvrModel::PredictRows.
  using RowScorer =
      std::function<Result<std::vector<float>>(const Matrix& rows)>;

  /// \brief Deterministic construction from chains + embeddings (run
  /// by `hignn export-store`). Fails with InvalidArgument if the chains
  /// are not a consistent partition hierarchy.
  static Result<ClusterTreeIndex> Build(const Source& source);

  /// \brief Serializes the tree as checksummed store sections: one
  /// meta section (level count + per-level shapes), then one section
  /// per level with the 64-byte-aligned centroid and CSR arrays.
  /// Assumes the writer is at a fresh section boundary.
  void WriteSections(BinaryWriter& writer) const;

  /// \brief Zero-copy load of WriteSections output. Validates every
  /// shape and the CSR structure against the store's chains (`source`);
  /// any inconsistency is an IOError, the same contract as a failed
  /// section checksum.
  static Result<ClusterTreeIndex> ReadSections(BinaryReader& reader,
                                               const Source& source);

  int32_t num_levels() const {
    return static_cast<int32_t>(levels_.size());
  }
  int32_t num_items() const { return num_items_; }
  const FeatureRowLayout& geometry() const { return geometry_; }

  /// \brief Level access, `level` in [1, num_levels()].
  const ClusterTreeLevel& level(int32_t level) const;

  /// \brief Beam-search descent for one user. `user_block` /
  /// `user_tail` are the store's rows for the querying user; `beam`
  /// must be >= 1 (the exact path never reaches here). Returns the
  /// surviving leaf item ids sorted ascending. `stats` may be null.
  ///
  /// Each scored level is one AssembleFeatureRows call over the frontier,
  /// the centroids standing in for the item block and tail: the assembler
  /// FillFeatureRow runs, so an internal node is scored by the identical
  /// arithmetic its member leaves are. The rows live in one matrix per
  /// call, reallocated only when a level's frontier size changes.
  Result<std::vector<int32_t>> SelectLeaves(const float* user_block,
                                            const float* user_tail,
                                            int32_t beam,
                                            const RowScorer& scorer,
                                            SearchStats* stats) const;

 private:
  ClusterTreeIndex() = default;

  int32_t num_items_ = 0;
  FeatureRowLayout geometry_;
  std::vector<ClusterTreeLevel> levels_;  ///< levels_[l-1] is level l
};

/// \brief Default beam width for the serving top-k fast path
/// (`hignn_serve serve --topk-beam`); chosen so the planted-hierarchy
/// benchmark holds recall@10 >= 0.95 while scoring orders of magnitude
/// fewer rows than the linear scan (BENCH_serving.json).
inline constexpr int32_t kDefaultTopKBeam = 32;

}  // namespace hignn

#endif  // HIGNN_SERVE_INDEX_CLUSTER_TREE_H_
