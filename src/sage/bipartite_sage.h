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

/// \brief Where one level's SAGE training stands: everything that
/// resuming or rolling back the level restores, so its remaining steps
/// replay bit for bit. SageTrainer::Capture takes one and Restore puts it
/// back; Fit keeps one as its rollback anchor and a checkpoint carries
/// one.
struct LevelTrainingState {
  /// SAGE steps completed within the level. 0 means nothing is trained
  /// yet: the level restarts from its seed and the fields below are
  /// unused (a boundary checkpoint leaves them empty).
  int32_t step = 0;

  /// SAGE parameter values in Params() order.
  std::vector<Matrix> params;

  /// Optimizer auxiliary state for the same parameter order.
  OptimizerState opt;

  /// Current learning rate (decays on rollback).
  float learning_rate = 0.0f;

  /// Training RNG stream position at the step boundary: before the draw
  /// of step `step`, whether or not it was already drawn ahead.
  RngState rng;

  /// Tail-loss accumulator (mean over the final 10% of steps).
  double tail_loss_sum = 0.0;
  int64_t tail_count = 0;
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
///
/// A batch runs in two halves. The draw half makes every rng draw (the
/// positive edges, the negatives, each hop's neighbor samples), interns
/// the frontiers and remaps sampled ids to frontier rows, into a
/// StepPlan; it reads the graph, the config and the rng only. The compute
/// half builds the tape from the plan and the weights, then runs the loss,
/// the backward pass and Adam. No draw reads the weights, so SageTrainer
/// can draw step t+1 while step t computes and consume the rng in the
/// same order.
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
  /// skipped steps. Draws, then computes, on the calling thread; a
  /// SageTrainer gives the same bits without rebuilding the negative
  /// sampler every call.
  Result<double> TrainStep(const BipartiteGraph& graph,
                           const Matrix& left_features,
                           const Matrix& right_features, Adam& optimizer,
                           Rng& rng, TrainingMonitor* monitor = nullptr);

  /// \brief Full training loop through a SageTrainer; returns the mean
  /// loss of the final 10% of steps (useful as a convergence indicator in
  /// tests).
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
  friend class SageTrainer;

  BipartiteSage(const BipartiteSageConfig& config, int32_t left_feat_dim,
                int32_t right_feat_dim);

  /// Deduplicated vertex set of one side at one step: ids in first-seen
  /// order and slot[v] = v's index in ids, or -1. Reset clears only the
  /// slots its ids touched, so a batch costs O(batch), not O(|V|).
  struct Frontier {
    std::vector<int32_t> ids;
    std::vector<int32_t> slot;

    void Reset(int32_t num_vertices);
    int32_t Intern(int32_t v);
    int32_t IndexOf(int32_t v) const;
  };

  /// One side's share of a batch's sampled dependency structure, indexed
  /// by SAGE step p in [1, P] (index 0 is unused: step 1 reads the
  /// feature tables by vertex id).
  struct SidePlan {
    /// The vertices whose step-p embeddings are needed.
    std::vector<Frontier> need;
    /// Group k is the sampled neighborhood of need[p].ids[k]: opposite
    /// vertex ids at step 1, rows of the opposite step-(p-1) frontier
    /// above it. Weights are normalized for the weighted aggregator.
    std::vector<RowGroups> nbrs;
    /// Above step 1, row k is need[p].ids[k]'s row in need[p-1].
    std::vector<std::vector<int32_t>> self;
    /// Row of each target in need[P], in target order.
    std::vector<int32_t> order;
  };

  /// What one batch draws, filled by the draw half and read by the
  /// compute half. Buffers keep their capacity from batch to batch.
  struct StepPlan {
    // Training batch only: targets (positives, then negatives) and the
    // scored rows of Eq. 5 with their edge weights and labels.
    std::vector<int32_t> left_targets;
    std::vector<int32_t> right_targets;
    std::vector<int32_t> row_left;
    std::vector<int32_t> row_right;
    std::vector<float> row_weight;
    std::vector<float> labels;
    SidePlan left;
    SidePlan right;
  };

  /// Draw half of a training step: positive edges, negatives and scored
  /// rows, then the targets' expansion.
  void DrawBatch(const BipartiteGraph& graph, const NegativeSampler& negatives,
                 Rng& rng, StepPlan& plan) const;

  /// Draw half of an embedding pass: samples each hop's neighborhoods of
  /// the targets top-down, interns the frontiers and remaps ids to rows.
  void DrawExpansion(const BipartiteGraph& graph,
                     const std::vector<int32_t>& left_targets,
                     const std::vector<int32_t>& right_targets, Rng& rng,
                     StepPlan& plan) const;

  /// Rows of the targets' embeddings on `tape`.
  struct BatchEmbedding {
    VarId left = kInvalidVar;   ///< rows align with left targets
    VarId right = kInvalidVar;  ///< rows align with right targets
  };

  /// Compute half of an embedding pass: the layered forward of the drawn
  /// targets. The tape borrows `plan`'s neighbor groups, so `plan` must
  /// outlive it.
  BatchEmbedding ForwardBatch(Tape& tape, const Matrix& left_features,
                              const Matrix& right_features,
                              const StepPlan& plan, bool train);

  /// Compute half of a training step: forward, loss, backward and Adam.
  double ComputeStep(const StepPlan& plan, const Matrix& left_features,
                     const Matrix& right_features, Adam& optimizer,
                     TrainingMonitor* monitor);

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

  // The plan TrainStep and EmbedTargets draw into.
  StepPlan plan_;
};

/// \brief Trains one level's BipartiteSage on one graph: Fit and
/// BipartiteSage::Train both drive it.
///
/// It owns what the level's steps share: the negative sampler's alias
/// tables, built once; two step plans, each first drawn into on the
/// calling thread; and the step loop's rng (seeded from the config),
/// Adam, step count and tail-loss sum. From then on, while the calling
/// thread computes step t, one pool worker draws step t+1 into the other
/// plan (ThreadPool::ForkJoin); at one thread both run inline. No draw reads
/// the weights, so every bit equals a loop of TrainStep calls. The draw
/// records no span; its time and the caller's wait for it go to the
/// `sage.draw_us` and `sage.draw_wait_us` histograms.
class SageTrainer {
 public:
  /// \brief Checks the inputs and sets up training of `sage` on `graph`
  /// and its level features. Everything passed must outlive the trainer.
  static Result<SageTrainer> Create(BipartiteSage& sage,
                                    const BipartiteGraph& graph,
                                    const Matrix& left_features,
                                    const Matrix& right_features,
                                    float clip_norm);

  SageTrainer(SageTrainer&&) = default;
  SageTrainer(const SageTrainer&) = delete;
  SageTrainer& operator=(const SageTrainer&) = delete;

  /// \brief Runs step `step()` and returns its batch loss. With a
  /// monitor, an update whose gradients are not finite is dropped. The
  /// step is not counted until Accept: a caller that rolls back instead
  /// calls Restore.
  double Step(TrainingMonitor* monitor);

  /// \brief Counts the step just run: its loss joins the tail mean when
  /// it falls in the final 10% of steps.
  void Accept(double loss);

  int32_t step() const { return step_; }
  bool done() const { return step_ >= sage_->config().train_steps; }

  /// \brief Mean loss of the accepted steps in the final 10% (0 if none).
  double tail_loss() const;

  /// \brief The training record at the current step boundary.
  LevelTrainingState Capture();

  /// \brief Puts a captured record back and discards any plan drawn
  /// ahead, so the next step draws from the restored rng.
  Status Restore(const LevelTrainingState& state);

 private:
  SageTrainer(BipartiteSage& sage, const BipartiteGraph& graph,
              const Matrix& left_features, const Matrix& right_features,
              float clip_norm);

  // Draws the step after the current plan's into `plan`.
  void Draw(BipartiteSage::StepPlan& plan);

  BipartiteSage* sage_;
  const BipartiteGraph* graph_;
  const Matrix* left_features_;
  const Matrix* right_features_;
  NegativeSampler negatives_;
  Adam optimizer_;
  Rng rng_;
  RngState boundary_;  // rng_ before step step_'s draw
  BipartiteSage::StepPlan plans_[2];
  int current_ = 0;     // plans_[current_] is step step_'s when drawn_
  bool drawn_ = false;
  bool both_drawn_ = false;  // each plan has been drawn into on the caller
  int32_t step_ = 0;
  double tail_loss_sum_ = 0.0;
  int64_t tail_count_ = 0;
};

}  // namespace hignn

#endif  // HIGNN_SAGE_BIPARTITE_SAGE_H_
