#ifndef HIGNN_NN_OPTIMIZER_H_
#define HIGNN_NN_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/layers.h"
#include "util/status.h"

namespace hignn {

/// \brief Serializable Adam state: the per-parameter first/second moment
/// pair and step count, laid out in the order of the parameter vector
/// handed to ExportState. Persisted by the training checkpointer so a
/// resumed run continues the exact update trajectory of the interrupted
/// one.
struct OptimizerState {
  std::vector<Matrix> tensors;  ///< m, v per param, in param order
  std::vector<int64_t> steps;   ///< one entry per param (0 if unused)
};

/// \brief Adam (Kingma & Ba) with bias correction, optional global
/// gradient-norm clipping and L2 weight decay.
///
/// Usage per minibatch: grads are zeroed inside Step() after applying, so
/// the training loop is simply forward → Backward → AccumulateGrads →
/// Step(params).
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

  /// \brief Applies one update using Parameter::grad, then zeroes grads.
  void Step(const std::vector<Parameter*>& params);

  /// \brief Optional global gradient-norm clipping (0 disables).
  void set_clip_norm(float clip_norm) { clip_norm_ = clip_norm; }

  /// \brief L2 weight decay coefficient (paper regularizes with L2-norm).
  void set_weight_decay(float weight_decay) { weight_decay_ = weight_decay; }

  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

  /// \brief Snapshots the moments for `params` (in that order).
  /// Parameters never stepped yet export zero tensors / step 0.
  OptimizerState ExportState(const std::vector<Parameter*>& params) const;

  /// \brief Restores state captured by ExportState for the same parameter
  /// vector (matched by order and shape). Returns InvalidArgument on any
  /// shape or count mismatch.
  Status ImportState(const std::vector<Parameter*>& params,
                     const OptimizerState& state);

 private:
  struct Slot {
    Matrix m;
    Matrix v;
    long step = 0;
  };

  void ApplyUpdate(Parameter& param);

  float lr_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float clip_norm_ = 0.0f;
  float weight_decay_ = 0.0f;
  std::unordered_map<const Parameter*, Slot> slots_;
};

}  // namespace hignn

#endif  // HIGNN_NN_OPTIMIZER_H_
