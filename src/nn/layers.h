#ifndef HIGNN_NN_LAYERS_H_
#define HIGNN_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/matrix.h"
#include "nn/tape.h"
#include "util/rng.h"

namespace hignn {

/// \brief A named, trainable tensor that persists across minibatches.
///
/// Parameters live in the model; each forward pass registers them on a
/// fresh Tape and, after Backward(), the tape gradient is pulled back into
/// `grad` for the optimizer to consume.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;  ///< Same shape as value; zeroed by Adam::Step().

  Parameter() = default;
  Parameter(std::string n, Matrix v)
      : name(std::move(n)), grad(v.rows(), v.cols()) {
    value = std::move(v);
  }
};

/// \brief Pointwise nonlinearity selector for layers.
enum class Activation { kNone, kSigmoid, kTanh, kRelu, kLeakyRelu };

/// \brief Applies an activation on the tape.
VarId ApplyActivation(Tape& tape, VarId x, Activation act,
                      float leaky_slope = 0.01f);

/// \brief Applies an activation in place with the tape op's kernel.
void ApplyActivation(Matrix& x, Activation act, float leaky_slope = 0.01f);

/// \brief Fully connected layer y = act(x W + b) with Xavier/He init.
class Dense {
 public:
  /// \brief Initializes W (in x out) and b (1 x out). He-style scaling for
  /// ReLU-family activations, Xavier otherwise. `use_bias = false` yields
  /// a pure linear map (used for the paper's transformation matrices
  /// M_ui / M_iu, which have no bias term).
  Dense(std::string name, size_t in_dim, size_t out_dim, Activation act,
        Rng& rng, bool use_bias = true);

  /// \brief Records the layer on `tape` and returns the output node.
  /// `train` toggles requires_grad on the weights.
  VarId Forward(Tape& tape, VarId x, bool train = true);

  /// \brief Tape-free inference forward, bitwise identical to the tape
  /// path: the same GEMM kernel run on the calling thread, then bias and
  /// activation in place. Const and stateless, so any number of threads
  /// may run it on one layer at once.
  Matrix Forward(const Matrix& x) const;

  /// \brief Pulls tape gradients of this layer's parameters into
  /// Parameter::grad (accumulating).
  void AccumulateGrads(const Tape& tape);

  /// \brief Pointers for the optimizer.
  std::vector<Parameter*> Params();

  /// \brief Read-only view, same order (serialization and inspection).
  std::vector<const Parameter*> Params() const;

  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

 private:
  Parameter weight_;
  Parameter bias_;
  Activation act_;
  bool use_bias_;
  VarId last_w_ = kInvalidVar;
  VarId last_b_ = kInvalidVar;
};

/// \brief Multi-layer perceptron: a chain of Dense layers.
///
/// `dims` is the full size chain, e.g. {in, 256, 128, 64, 1}; hidden layers
/// use `hidden_act`, the final layer `output_act` (usually kNone to emit
/// logits).
class Mlp {
 public:
  Mlp(std::string name, const std::vector<size_t>& dims,
      Activation hidden_act, Activation output_act, Rng& rng);

  VarId Forward(Tape& tape, VarId x, bool train = true);
  /// \brief Tape-free inference forward (see Dense::Forward(const Matrix&)).
  Matrix Forward(const Matrix& x) const;
  void AccumulateGrads(const Tape& tape);
  std::vector<Parameter*> Params();
  std::vector<const Parameter*> Params() const;

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }

 private:
  std::vector<Dense> layers_;
};

}  // namespace hignn

#endif  // HIGNN_NN_LAYERS_H_
