#ifndef HIGNN_CORE_HIGNN_H_
#define HIGNN_CORE_HIGNN_H_

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "graph/bipartite_graph.h"
#include "nn/matrix.h"
#include "sage/bipartite_sage.h"
#include "util/status.h"

namespace hignn {

/// \brief Most levels a hierarchy may have: Fit refuses more, and the
/// model and checkpoint readers reject files that declare more.
inline constexpr int32_t kMaxLevels = 64;

/// \brief Configuration for the full HiGNN stack (Algorithm 1).
struct HignnConfig {
  /// L: number of GNN/cluster levels. L = 0 degenerates to "no graph"
  /// (the DIN baseline); L = 1 is the flat GE baseline.
  int32_t levels = 3;

  /// Per-level bipartite GraphSAGE settings. dims.back() is the level
  /// embedding size d (paper: 32).
  BipartiteSageConfig sage;

  /// K-decay: the cluster count at level l is (vertex count at l-1) / alpha
  /// (paper: K_l = K_{l-1}/alpha, alpha = 5 works best).
  double alpha = 5.0;

  /// Lower bound on cluster counts so deep levels stay meaningful.
  int32_t min_clusters = 4;

  /// K-means settings; `k` is overridden per level/side.
  KMeansConfig kmeans;

  /// Unsupervised taxonomy mode (Sec. V-C.1): choose each level's k by
  /// maximizing the Calinski-Harabasz index over candidates around
  /// n/alpha instead of the fixed decay.
  bool select_k_by_ch = false;

  /// Worker threads for the parallel kernels (MatMul, K-means assignment
  /// and reduction, coarsening) and for drawing the next SAGE minibatch
  /// while the current one computes. 0 = hardware
  /// concurrency, 1 = fully inline single-threaded execution. Applied to
  /// the process-wide pool at the top of Fit(); every parallel path uses
  /// fixed-order reductions, so results for a given seed are identical at
  /// any setting.
  int32_t num_threads = 0;

  uint64_t seed = 1234;
  bool verbose = false;
};

/// \brief Artifacts of one HiGNN level l (1-based).
///
/// `graph` is the shape of the input graph G^{l-1} the level's GraphSAGE
/// trained on; the embeddings are Z^l (one row per G^{l-1} vertex); the
/// assignments define the coarsening into G^l, which CoarsenBipartiteGraph
/// rebuilds from G^{l-1}, so no level keeps edges.
struct HignnLevel {
  GraphShape graph;
  Matrix left_embeddings;
  Matrix right_embeddings;
  std::vector<int32_t> left_assignment;
  std::vector<int32_t> right_assignment;
  int32_t num_left_clusters = 0;
  int32_t num_right_clusters = 0;
  double train_loss = 0.0;
};

/// \brief Trained hierarchical model: the per-level embeddings and cluster
/// chains of Algorithm 1's output (G, Z_u, Z_i).
class HignnModel {
 public:
  HignnModel() = default;

  /// \brief Reassembles a model from per-level artifacts (used by the
  /// serialization layer and by tests).
  static HignnModel FromLevels(std::vector<HignnLevel> levels) {
    HignnModel model;
    model.levels_ = std::move(levels);
    return model;
  }

  const std::vector<HignnLevel>& levels() const { return levels_; }
  int32_t num_levels() const { return static_cast<int32_t>(levels_.size()); }

  /// \brief Embedding size of each level.
  int32_t level_dim() const;

  /// \brief Size of the concatenated hierarchical embedding (L * d).
  int32_t hierarchical_dim() const { return num_levels() * level_dim(); }

  /// \brief Cluster (super-vertex of G^level) containing original left
  /// vertex `u`; `level` in [1, L]. Level l vertex ids chain through the
  /// per-level K-means assignments.
  int32_t LeftClusterAt(int32_t u, int32_t level) const;
  int32_t RightClusterAt(int32_t i, int32_t level) const;

  /// \brief Hierarchical embeddings for every original vertex, restricted
  /// to levels [1, max_level]; max_level <= 0 means all levels. Row u is
  /// z^H_u = CONCAT(z^1_u, ..., z^L_u) (Sec. IV-A): its level-l block is
  /// the embedding of u's cluster chain at that level, so rows are
  /// (max_level * d) wide. Used to build the CGNN / GE / HUP / HIA
  /// baselines from one trained hierarchy.
  Matrix AllHierarchicalLeft(int32_t max_level = 0) const;
  Matrix AllHierarchicalRight(int32_t max_level = 0) const;

 private:
  friend class Hignn;
  std::vector<HignnLevel> levels_;
};

struct CheckpointOptions;
struct TrainingMonitorConfig;

/// \brief HiGNN driver: stacks bipartite GraphSAGE and deterministic
/// K-means clustering alternately (Algorithm 1).
class Hignn {
 public:
  /// \brief Runs Algorithm 1 on the input graph and features. Requires
  /// 1 <= `config.levels` <= kMaxLevels; for the L = 0 case skip HiGNN
  /// entirely. Checkpointing disabled; default numerical-health guards.
  static Result<HignnModel> Fit(const BipartiteGraph& graph,
                                const Matrix& left_features,
                                const Matrix& right_features,
                                const HignnConfig& config);

  /// \brief Crash-safe variant (core/checkpoint.h, core/training_monitor.h).
  ///
  /// With a checkpoint directory set, training state is persisted after
  /// every hierarchy level (and every `checkpoint.step_interval` SAGE
  /// steps within a level); when `checkpoint.resume` is set and the
  /// directory holds a valid checkpoint whose fingerprint matches these
  /// inputs, training continues from it and the final model is bitwise
  /// identical to an uninterrupted run. Checkpoints hold no graph: resume
  /// rebuilds the current level's inputs by replaying the coarsening of
  /// the finished levels over `graph`, and ignores (with a warning) a
  /// checkpoint whose levels do not replay onto it. The monitor guards
  /// every step's loss and gradients; on divergence the level rolls back
  /// to its last saved state with a reduced learning rate.
  static Result<HignnModel> Fit(const BipartiteGraph& graph,
                                const Matrix& left_features,
                                const Matrix& right_features,
                                const HignnConfig& config,
                                const CheckpointOptions& checkpoint,
                                const TrainingMonitorConfig& monitor);
};

}  // namespace hignn

#endif  // HIGNN_CORE_HIGNN_H_
