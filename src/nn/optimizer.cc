#include "nn/optimizer.h"

#include <cmath>

namespace hignn {

void Adam::Step(const std::vector<Parameter*>& params) {
  if (clip_norm_ > 0.0f) {
    double total = 0.0;
    for (const Parameter* p : params) total += p->grad.SquaredNorm();
    const double norm = std::sqrt(total);
    if (norm > clip_norm_) {
      const float scale = static_cast<float>(clip_norm_ / norm);
      for (Parameter* p : params) p->grad.Scale(scale);
    }
  }
  for (Parameter* p : params) {
    if (weight_decay_ > 0.0f) p->grad.Axpy(weight_decay_, p->value);
    ApplyUpdate(*p);
    p->grad.Fill(0.0f);
  }
}

OptimizerState Adam::ExportState(const std::vector<Parameter*>& params) const {
  OptimizerState state;
  state.tensors.reserve(2 * params.size());
  state.steps.reserve(params.size());
  for (const Parameter* p : params) {
    auto it = slots_.find(p);
    if (it != slots_.end()) {
      state.tensors.push_back(it->second.m);
      state.tensors.push_back(it->second.v);
      state.steps.push_back(static_cast<int64_t>(it->second.step));
    } else {
      state.tensors.emplace_back(p->value.rows(), p->value.cols());
      state.tensors.emplace_back(p->value.rows(), p->value.cols());
      state.steps.push_back(0);
    }
  }
  return state;
}

Status Adam::ImportState(const std::vector<Parameter*>& params,
                         const OptimizerState& state) {
  if (state.tensors.size() != 2 * params.size() ||
      state.steps.size() != params.size()) {
    return Status::InvalidArgument("adam state count mismatch");
  }
  slots_.clear();
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& m = state.tensors[2 * i];
    const Matrix& v = state.tensors[2 * i + 1];
    if (m.rows() != params[i]->value.rows() ||
        m.cols() != params[i]->value.cols() || v.rows() != m.rows() ||
        v.cols() != m.cols()) {
      return Status::InvalidArgument("adam slot shape mismatch");
    }
    Slot& slot = slots_[params[i]];
    slot.m = m;
    slot.v = v;
    slot.step = static_cast<long>(state.steps[i]);
  }
  return Status::OK();
}

void Adam::ApplyUpdate(Parameter& param) {
  Slot& slot = slots_[&param];
  if (slot.m.rows() != param.value.rows() ||
      slot.m.cols() != param.value.cols()) {
    slot.m = Matrix(param.value.rows(), param.value.cols());
    slot.v = Matrix(param.value.rows(), param.value.cols());
    slot.step = 0;
  }
  ++slot.step;
  const float b1t = 1.0f - std::pow(beta1_, static_cast<float>(slot.step));
  const float b2t = 1.0f - std::pow(beta2_, static_cast<float>(slot.step));
  float* m = slot.m.data();
  float* v = slot.v.data();
  const float* g = param.grad.data();
  float* w = param.value.data();
  for (size_t i = 0; i < param.value.size(); ++i) {
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
    const float mhat = m[i] / b1t;
    const float vhat = v[i] / b2t;
    w[i] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
  }
}

}  // namespace hignn
