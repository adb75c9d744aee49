#ifndef HIGNN_NN_TAPE_H_
#define HIGNN_NN_TAPE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/matrix.h"
#include "nn/row_groups.h"

namespace hignn {

/// \brief Handle to a node on an autograd Tape.
using VarId = int32_t;
inline constexpr VarId kInvalidVar = -1;

/// \brief Reverse-mode automatic differentiation over Matrix values.
///
/// A Tape records one forward computation as a DAG of nodes; Backward()
/// runs the chain rule in reverse topological (creation) order. Tapes are
/// cheap, single-use objects: build one per minibatch, read gradients of
/// the leaf inputs, then discard it.
///
/// The op set is exactly what bipartite GraphSAGE (Eqs. 1-5, 8-12), the
/// CVR MLP (Eq. 7) and word2vec need: matmul, bias broadcast, elementwise
/// arithmetic, column concat, row gather/scatter (embedding lookup),
/// grouped row means (neighborhood aggregation), pointwise nonlinearities
/// and binary-cross-entropy-with-logits.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// \brief Registers a leaf. If `requires_grad` is false, no gradient is
  /// accumulated for it (saves work for constant inputs).
  VarId Input(Matrix value, bool requires_grad = false);

  // --- Linear algebra -----------------------------------------------------

  /// \brief (m x k) * (k x n) -> (m x n).
  VarId MatMul(VarId a, VarId b);

  /// \brief Adds a (1 x n) bias row to every row of a (m x n) matrix.
  VarId AddRowBroadcast(VarId a, VarId bias);

  /// \brief Elementwise (Hadamard) product.
  VarId Mul(VarId a, VarId b);

  /// \brief Horizontal concatenation [a | b].
  VarId ConcatCols(VarId a, VarId b);

  /// \brief Horizontal concatenation of several blocks.
  VarId ConcatColsN(const std::vector<VarId>& parts);

  // --- Indexing / aggregation ---------------------------------------------

  /// \brief out.row(i) = a.row(index[i]); gradient scatters with
  /// accumulation (duplicate indices sum). Embedding lookup.
  VarId GatherRows(VarId a, std::vector<int32_t> index);

  /// \brief out.row(g) = mean over {a.row(j) : j in group g}. Empty
  /// groups yield a zero row. This is the GraphSAGE mean aggregator
  /// (AGGREGATE in Eqs. 1-2, 8-9) in matrix form. `groups.weights` is
  /// ignored. `groups` is borrowed, not copied: Backward() reads it, so it
  /// must outlive the tape (a temporary does not compile).
  VarId GroupMeanRows(VarId a, const RowGroups& groups);
  VarId GroupMeanRows(VarId a, RowGroups&& groups) = delete;

  /// \brief Weighted variant: out.row(g) = sum_k w_k * a.row(j_k) over
  /// group g's ids j_k and their `groups.weights` w_k (one per id).
  /// Weights are caller-normalized; used by the edge-weighted aggregator
  /// ablation. Borrows `groups` like GroupMeanRows.
  VarId GroupWeightedSumRows(VarId a, const RowGroups& groups);
  VarId GroupWeightedSumRows(VarId a, RowGroups&& groups) = delete;

  // Fused constant-source variants: gather/aggregate straight out of a
  // matrix that is NOT on the tape (e.g. the immutable level-0 feature
  // table), skipping the intermediate row-copy Input node entirely. The
  // produced values are bitwise identical to Input(copy) + the tape op;
  // since a constant source never needs gradients, no backward closure is
  // recorded (the unfused path's backward was already a no-op for
  // requires_grad=false inputs). `src` must outlive the tape.

  /// \brief out.row(i) = src.row(index[i]), with `src` a constant matrix.
  VarId GatherRowsFrom(const Matrix& src, const std::vector<int32_t>& index);

  /// \brief GroupMeanRows streaming directly from a constant matrix.
  VarId GroupMeanRowsFrom(const Matrix& src, const RowGroups& groups);

  /// \brief GroupWeightedSumRows streaming directly from a constant matrix.
  VarId GroupWeightedSumRowsFrom(const Matrix& src, const RowGroups& groups);

  /// \brief L2-normalizes every row (rows with norm < eps pass through).
  /// GraphSAGE-style output normalization; keeps embeddings on the unit
  /// sphere so downstream K-means distances are scale-free.
  VarId RowL2Normalize(VarId a, float eps = 1e-12f);

  // --- Nonlinearities ------------------------------------------------------

  VarId Sigmoid(VarId a);
  VarId Tanh(VarId a);
  VarId Relu(VarId a);

  /// \brief LeakyReLU with the given negative slope (paper uses Leaky ReLU
  /// in the prediction MLP).
  VarId LeakyRelu(VarId a, float negative_slope = 0.01f);

  // --- Reductions / losses --------------------------------------------------

  /// \brief `scale` times the sum of all elements -> (1 x 1). The default
  /// scale of 1 multiplies exactly, so it is the plain sum.
  VarId SumAll(VarId a, float scale = 1.0f);

  /// \brief Mean of all elements -> (1 x 1).
  VarId MeanAll(VarId a);

  /// \brief Numerically stable mean binary cross entropy with logits.
  ///
  /// `logits` must be (n x 1); `labels` in {0,1} (or soft targets) and
  /// optional per-sample `weights` must have length n. Returns (1 x 1).
  /// This implements both the supervised log loss (Eq. 7) and, with
  /// weights Qu/Qi on negative samples, the unsupervised bipartite loss
  /// (Eq. 5 / Eq. 12).
  VarId BceWithLogits(VarId logits, std::vector<float> labels,
                      std::vector<float> weights = {});

  // --- Execution -------------------------------------------------------------

  /// \brief Runs reverse-mode accumulation from `root`, which must be a
  /// (1 x 1) node. May be called once per tape.
  void Backward(VarId root);

  const Matrix& value(VarId id) const;

  /// \brief Gradient of the last Backward() root w.r.t. node `id`.
  /// Zero-shaped until Backward() runs; zero matrix for untouched nodes.
  const Matrix& grad(VarId id) const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;            // Allocated lazily in Backward().
    bool requires_grad;     // Propagated from inputs.
    std::function<void()> backward;  // Null for leaves.
  };

  VarId Emit(Matrix value, bool requires_grad,
             std::function<void()> backward);
  Matrix& MutableGrad(VarId id);
  void EnsureGrad(VarId id);

  std::vector<Node> nodes_;
  bool backward_done_ = false;
};

// Forward kernels of the AddRowBroadcast / Sigmoid / Tanh / LeakyRelu ops,
// in place. The tape ops call exactly these, so tape-free inference
// (Dense::Forward(const Matrix&)) built on them is bitwise identical to
// the recorded forward.

/// \brief a[r][c] += bias[0][c] for every row r.
void AddRowBroadcastInPlace(Matrix& a, const Matrix& bias);
void SigmoidInPlace(Matrix& a);
void TanhInPlace(Matrix& a);
/// \brief x <- negative_slope * x where x < 0 (simd::LeakyRelu).
void LeakyReluInPlace(Matrix& a, float negative_slope);

}  // namespace hignn

#endif  // HIGNN_NN_TAPE_H_
