#ifndef HIGNN_SAGE_BIPARTITE_SAGE_H_
#define HIGNN_SAGE_BIPARTITE_SAGE_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/sampling.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "util/rng.h"
#include "util/status.h"

namespace hignn {

class TrainingMonitor;

/// \brief How the similarity function f of Eq. 5 / Eq. 12 scores a
/// (z_left, z_right, edge-weight) triple.
enum class EdgeScorer {
  /// MLP over CONCAT(z_u, z_i, S) — the paper's literal formulation.
  /// Weak in practice: an MLP on raw concatenation learns pairwise
  /// interactions very slowly, so embeddings barely move.
  kConcatMlp,
  /// MLP over CONCAT(z_u, z_i, z_u ⊙ z_i, S). The Hadamard block hands
  /// the network the interaction features it needs; still "a full
  /// connection network over the concatenation" in spirit. Default.
  kHadamardMlp,
  /// Classic GraphSAGE: logit = z_u · z_i (edge weight ignored).
  kDot,
};

/// \brief Hyper-parameters for bipartite GraphSAGE (Section III-B) and its
/// shared-space query-item variant (Section V-B).
struct BipartiteSageConfig {
  /// Per-step output dimensions; size() == P (aggregation depth).
  /// Paper default: two steps of d=32 embeddings.
  std::vector<int32_t> dims = {32, 32};

  /// Neighbor sampling fanout per hop from the targets (K1, K2 of the
  /// complexity analysis in Sec. III-D); size() == P.
  std::vector<int32_t> fanouts = {10, 5};

  /// Weight sharing across towers (Eqs. 8-11): queries and items share
  /// AGGREGATE, M and W. Requires equal left/right feature dims.
  bool shared_weights = false;

  /// Edge-weight-proportional neighbor aggregation (ablation; the paper
  /// uses a plain mean aggregator).
  bool weighted_aggregator = false;

  /// Nonlinearity σ of the update layers (Eqs. 3-4 / 10-11). Tanh keeps
  /// embeddings sign-symmetric, which a dot-product-style similarity needs
  /// to express dissimilarity; the ReLU family confines them to the
  /// positive orthant and empirically collapses the contrastive loss.
  Activation update_activation = Activation::kTanh;

  /// L2-normalize final embeddings (GraphSAGE convention). Off by
  /// default: combined with one-sided activations it collapses training
  /// (all vectors end up in a tiny spherical cap); downstream K-means
  /// operates on the raw embeddings as the paper's Sec. III-C describes.
  bool normalize_output = false;

  // ---- Unsupervised objective (Eq. 5 / Eq. 12) ----
  int32_t negatives_per_edge_user = 2;  ///< Qu
  int32_t negatives_per_edge_item = 2;  ///< Qi
  /// γ, fed as the edge-weight input of f for negative pairs. Defaults to
  /// log1p(1) — the transformed weight of a single click — so the weight
  /// column cannot separate positives from negatives by itself and the
  /// embeddings are forced to carry the signal. (With the γ = 0 reading of
  /// Eq. 5 the scorer can solve the task from the weight column alone and
  /// the embeddings learn nothing.)
  float negative_edge_weight = 0.6931472f;
  EdgeScorer scorer = EdgeScorer::kHadamardMlp;
  std::vector<int32_t> scorer_hidden = {32};  ///< f's hidden layer sizes

  // ---- Optimization ----
  int32_t batch_size = 256;  ///< positive edges per step
  int32_t train_steps = 200;
  float learning_rate = 3e-3f;
  float weight_decay = 1e-6f;
  uint64_t seed = 97;

  /// Chunk size for full-graph inference after training.
  int32_t inference_batch = 1024;
};

/// \brief Final embeddings for every vertex of the trained graph.
struct SageEmbeddings {
  Matrix left;   ///< (num_left x dims.back())
  Matrix right;  ///< (num_right x dims.back())
};

/// \brief Two-tower bipartite GraphSAGE with the unsupervised bipartite
/// graph loss.
///
/// The model is the BG(G, Xu, Xi) building block of HiGNN's Algorithm 1:
/// at each step p users aggregate their sampled item neighbors through a
/// cross-space map M_ui then a dense layer W_u (Eqs. 1, 3), and items do
/// the mirror image (Eqs. 2, 4). The unsupervised loss (Eq. 5) scores
/// positive edges against negative-sampled vertex pairs through a small
/// MLP f over CONCAT(z_u, z_i, edge-weight).
class BipartiteSage {
 public:
  /// \brief Validates the configuration and initializes parameters.
  static Result<BipartiteSage> Create(const BipartiteSageConfig& config,
                                      int32_t left_feat_dim,
                                      int32_t right_feat_dim);

  /// \brief Runs one minibatch optimization step on `graph`; returns the
  /// batch loss. `left_features`/`right_features` are the level inputs
  /// (X_u, X_i). With a monitor, updates whose gradients contain NaN/inf
  /// are dropped (gradients zeroed, weights untouched) and counted as
  /// skipped steps.
  Result<double> TrainStep(const BipartiteGraph& graph,
                           const Matrix& left_features,
                           const Matrix& right_features, Adam& optimizer,
                           Rng& rng, TrainingMonitor* monitor = nullptr);

  /// \brief Full training loop; returns the mean loss of the final 10% of
  /// steps (useful as a convergence indicator in tests).
  Result<double> Train(const BipartiteGraph& graph,
                       const Matrix& left_features,
                       const Matrix& right_features);

  /// \brief Embeds every vertex with the trained weights (z_u, z_i).
  Result<SageEmbeddings> EmbedAll(const BipartiteGraph& graph,
                                  const Matrix& left_features,
                                  const Matrix& right_features);

  /// \brief Embeds explicit target sets; rows align with the target order.
  /// Exposed for tests and incremental serving.
  Result<SageEmbeddings> EmbedTargets(const BipartiteGraph& graph,
                                      const Matrix& left_features,
                                      const Matrix& right_features,
                                      const std::vector<int32_t>& left_targets,
                                      const std::vector<int32_t>& right_targets,
                                      Rng& rng);

  std::vector<Parameter*> Params();

  const BipartiteSageConfig& config() const { return config_; }
  int32_t output_dim() const { return config_.dims.back(); }

 private:
  BipartiteSage(const BipartiteSageConfig& config, int32_t left_feat_dim,
                int32_t right_feat_dim);

  /// Sampled dependency structure + tape nodes for one batch.
  struct BatchEmbedding {
    VarId left = kInvalidVar;   ///< rows align with left targets
    VarId right = kInvalidVar;  ///< rows align with right targets
  };

  /// Deduplicated vertex set of one side at one step: ids in first-seen
  /// order and slot[v] = v's index in ids, or -1. Kept as scratch across
  /// batches; Reset clears only the slots its ids touched, so a batch
  /// costs O(batch), not O(|V|).
  struct Frontier {
    std::vector<int32_t> ids;
    std::vector<int32_t> slot;

    void Reset(int32_t num_vertices);
    int32_t Intern(int32_t v);
    int32_t IndexOf(int32_t v) const;
  };

  /// Builds the layered computation for the given targets on `tape`.
  BatchEmbedding ForwardBatch(Tape& tape, const BipartiteGraph& graph,
                              const Matrix& left_features,
                              const Matrix& right_features,
                              const std::vector<int32_t>& left_targets,
                              const std::vector<int32_t>& right_targets,
                              Rng& rng, bool train);

  /// Scores CONCAT(z_left, z_right, weight) rows through f.
  VarId ScoreEdges(Tape& tape, VarId left_rows, VarId right_rows,
                   const std::vector<float>& edge_weights, bool train);

  void AccumulateGrads(const Tape& tape);

  BipartiteSageConfig config_;
  int32_t left_feat_dim_;
  int32_t right_feat_dim_;

  // Per-step layers. When shared_weights is set the right-tower vectors
  // alias the left tower (same objects reused; right_* left empty).
  std::vector<Dense> left_transform_;   // M_ui per step (left aggregates right)
  std::vector<Dense> right_transform_;  // M_iu per step
  std::vector<Dense> left_update_;      // W_u per step
  std::vector<Dense> right_update_;     // W_i per step
  Mlp scorer_;                          // f

  // ForwardBatch's frontiers, one per step 1..P and side (index 0 is
  // unused: step 1 reads the feature tables by vertex id).
  std::vector<Frontier> left_frontiers_;
  std::vector<Frontier> right_frontiers_;
};

}  // namespace hignn

#endif  // HIGNN_SAGE_BIPARTITE_SAGE_H_
