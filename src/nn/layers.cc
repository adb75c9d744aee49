#include "nn/layers.h"

#include <cmath>

namespace hignn {

VarId ApplyActivation(Tape& tape, VarId x, Activation act, float leaky_slope) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kSigmoid:
      return tape.Sigmoid(x);
    case Activation::kTanh:
      return tape.Tanh(x);
    case Activation::kRelu:
      return tape.Relu(x);
    case Activation::kLeakyRelu:
      return tape.LeakyRelu(x, leaky_slope);
  }
  return x;
}

void ApplyActivation(Matrix& x, Activation act, float leaky_slope) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kSigmoid:
      return SigmoidInPlace(x);
    case Activation::kTanh:
      return TanhInPlace(x);
    case Activation::kRelu:
      return LeakyReluInPlace(x, 0.0f);
    case Activation::kLeakyRelu:
      return LeakyReluInPlace(x, leaky_slope);
  }
}

namespace {

float InitScale(size_t in_dim, size_t out_dim, Activation act) {
  // He for the ReLU family, Xavier/Glorot otherwise.
  if (act == Activation::kRelu || act == Activation::kLeakyRelu) {
    return std::sqrt(2.0f / static_cast<float>(in_dim));
  }
  return std::sqrt(2.0f / static_cast<float>(in_dim + out_dim));
}

}  // namespace

Dense::Dense(std::string name, size_t in_dim, size_t out_dim, Activation act,
             Rng& rng, bool use_bias)
    : weight_(name + ".W", Matrix(in_dim, out_dim)),
      bias_(name + ".b", Matrix(1, out_dim)),
      act_(act),
      use_bias_(use_bias) {
  weight_.value.FillNormal(rng, InitScale(in_dim, out_dim, act));
}

VarId Dense::Forward(Tape& tape, VarId x, bool train) {
  last_w_ = tape.Input(weight_.value, train);
  VarId lin = tape.MatMul(x, last_w_);
  if (use_bias_) {
    last_b_ = tape.Input(bias_.value, train);
    lin = tape.AddRowBroadcast(lin, last_b_);
  } else {
    last_b_ = kInvalidVar;
  }
  return ApplyActivation(tape, lin, act_);
}

Matrix Dense::Forward(const Matrix& x) const {
  Matrix out = MatMulSerial(x, weight_.value);
  if (use_bias_) AddRowBroadcastInPlace(out, bias_.value);
  ApplyActivation(out, act_);
  return out;
}

void Dense::AccumulateGrads(const Tape& tape) {
  if (last_w_ == kInvalidVar) return;
  const Matrix& gw = tape.grad(last_w_);
  if (!gw.empty()) weight_.grad.Add(gw);
  if (last_b_ != kInvalidVar) {
    const Matrix& gb = tape.grad(last_b_);
    if (!gb.empty()) bias_.grad.Add(gb);
  }
}

std::vector<Parameter*> Dense::Params() {
  if (!use_bias_) return {&weight_};
  return {&weight_, &bias_};
}

std::vector<const Parameter*> Dense::Params() const {
  if (!use_bias_) return {&weight_};
  return {&weight_, &bias_};
}

Mlp::Mlp(std::string name, const std::vector<size_t>& dims,
         Activation hidden_act, Activation output_act, Rng& rng) {
  HIGNN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(name + ".dense" + std::to_string(i), dims[i],
                         dims[i + 1], last ? output_act : hidden_act, rng);
  }
}

VarId Mlp::Forward(Tape& tape, VarId x, bool train) {
  VarId h = x;
  for (auto& layer : layers_) h = layer.Forward(tape, h, train);
  return h;
}

Matrix Mlp::Forward(const Matrix& x) const {
  Matrix h = layers_.front().Forward(x);
  for (size_t i = 1; i < layers_.size(); ++i) h = layers_[i].Forward(h);
  return h;
}

void Mlp::AccumulateGrads(const Tape& tape) {
  for (auto& layer : layers_) layer.AccumulateGrads(tape);
}

std::vector<Parameter*> Mlp::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer.Params()) out.push_back(p);
  }
  return out;
}

std::vector<const Parameter*> Mlp::Params() const {
  std::vector<const Parameter*> out;
  for (const auto& layer : layers_) {
    for (const Parameter* p : layer.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace hignn
