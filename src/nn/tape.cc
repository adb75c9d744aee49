#include "nn/tape.h"

#include <cmath>
#include <utility>

#include "nn/simd.h"
#include "obs/metrics.h"

namespace hignn {

namespace {

// Shared forward kernels for the tape ops and their fused constant-source
// variants (*From): one definition guarantees the fused path produces
// bitwise-identical values to Input(copy) + op.

Matrix GatherRowsValue(const Matrix& src,
                       const std::vector<int32_t>& index) {
  Matrix out(index.size(), src.cols());
  for (size_t r = 0; r < index.size(); ++r) {
    HIGNN_CHECK_GE(index[r], 0);
    HIGNN_CHECK_LT(static_cast<size_t>(index[r]), src.rows());
    const float* from = src.row(static_cast<size_t>(index[r]));
    float* dst = out.row(r);
    for (size_t c = 0; c < src.cols(); ++c) dst[c] = from[c];
  }
  return out;
}

Matrix GroupMeanRowsValue(const Matrix& src, const RowGroups& groups) {
  HIGNN_CHECK_EQ(groups.offsets.back(), groups.ids.size());
  Matrix out(groups.size(), src.cols());
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t begin = groups.offsets[g];
    const size_t end = groups.offsets[g + 1];
    if (begin == end) continue;
    float* dst = out.row(g);
    for (size_t k = begin; k < end; ++k) {
      const int32_t j = groups.ids[k];
      HIGNN_CHECK_GE(j, 0);
      HIGNN_CHECK_LT(static_cast<size_t>(j), src.rows());
      simd::Accumulate(dst, src.row(static_cast<size_t>(j)), src.cols());
    }
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (size_t c = 0; c < src.cols(); ++c) dst[c] *= inv;
  }
  return out;
}

Matrix GroupWeightedSumRowsValue(const Matrix& src, const RowGroups& groups) {
  HIGNN_CHECK_EQ(groups.offsets.back(), groups.ids.size());
  HIGNN_CHECK_EQ(groups.weights.size(), groups.ids.size());
  Matrix out(groups.size(), src.cols());
  for (size_t g = 0; g < groups.size(); ++g) {
    float* dst = out.row(g);
    for (size_t k = groups.offsets[g]; k < groups.offsets[g + 1]; ++k) {
      const int32_t j = groups.ids[k];
      HIGNN_CHECK_GE(j, 0);
      HIGNN_CHECK_LT(static_cast<size_t>(j), src.rows());
      simd::Axpy(dst, groups.weights[k], src.row(static_cast<size_t>(j)),
                 src.cols());
    }
  }
  return out;
}

void CountFusedAggregate() {
  static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "kernel.fused_aggregate.hits");
  hits.Add(1);
}

// Stable log(1 + exp(x)).
inline double Softplus(double x) {
  if (x > 0) return x + std::log1p(std::exp(-x));
  return std::log1p(std::exp(x));
}

inline double SigmoidScalar(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

}  // namespace

void AddRowBroadcastInPlace(Matrix& a, const Matrix& bias) {
  HIGNN_CHECK_EQ(bias.rows(), 1u);
  HIGNN_CHECK_EQ(a.cols(), bias.cols());
  const float* b = bias.row(0);
  for (size_t r = 0; r < a.rows(); ++r) {
    float* row = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += b[c];
  }
}

void SigmoidInPlace(Matrix& a) {
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(SigmoidScalar(a.data()[i]));
  }
}

void TanhInPlace(Matrix& a) { simd::Tanh(a.data(), a.size()); }

void LeakyReluInPlace(Matrix& a, float negative_slope) {
  simd::LeakyRelu(a.data(), negative_slope, a.size());
}

VarId Tape::Input(Matrix value, bool requires_grad) {
  return Emit(std::move(value), requires_grad, nullptr);
}

VarId Tape::Emit(Matrix value, bool requires_grad,
                 std::function<void()> backward) {
  nodes_.push_back(
      Node{std::move(value), Matrix(), requires_grad, std::move(backward)});
  return static_cast<VarId>(nodes_.size() - 1);
}

const Matrix& Tape::value(VarId id) const {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  return nodes_[id].value;
}

const Matrix& Tape::grad(VarId id) const {
  HIGNN_CHECK_GE(id, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(id), nodes_.size());
  return nodes_[id].grad;
}

Matrix& Tape::MutableGrad(VarId id) { return nodes_[id].grad; }

void Tape::EnsureGrad(VarId id) {
  Node& node = nodes_[id];
  if (node.grad.rows() != node.value.rows() ||
      node.grad.cols() != node.value.cols()) {
    node.grad = Matrix(node.value.rows(), node.value.cols());
  }
}

VarId Tape::MatMul(VarId a, VarId b) {
  const Matrix& va = value(a);
  const Matrix& vb = value(b);
  Matrix out = hignn::MatMul(va, vb);
  const bool needs = nodes_[a].requires_grad || nodes_[b].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, b, id] {
      const Matrix& gout = nodes_[id].grad;
      if (nodes_[a].requires_grad) {
        EnsureGrad(a);
        // dA = dOut * B^T
        MutableGrad(a).Add(hignn::MatMulBT(gout, nodes_[b].value));
      }
      if (nodes_[b].requires_grad) {
        EnsureGrad(b);
        // dB = A^T * dOut
        MutableGrad(b).Add(hignn::MatMulAT(nodes_[a].value, gout));
      }
    };
  }
  return id;
}

VarId Tape::AddRowBroadcast(VarId a, VarId bias) {
  Matrix out = value(a);
  AddRowBroadcastInPlace(out, value(bias));
  const bool needs = nodes_[a].requires_grad || nodes_[bias].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, bias, id] {
      const Matrix& gout = nodes_[id].grad;
      if (nodes_[a].requires_grad) {
        EnsureGrad(a);
        MutableGrad(a).Add(gout);
      }
      if (nodes_[bias].requires_grad) {
        EnsureGrad(bias);
        float* gb = MutableGrad(bias).row(0);
        for (size_t r = 0; r < gout.rows(); ++r) {
          simd::Accumulate(gb, gout.row(r), gout.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::Mul(VarId a, VarId b) {
  const Matrix& va = value(a);
  const Matrix& vb = value(b);
  HIGNN_CHECK_EQ(va.rows(), vb.rows());
  HIGNN_CHECK_EQ(va.cols(), vb.cols());
  Matrix out = va;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= vb.data()[i];
  const bool needs = nodes_[a].requires_grad || nodes_[b].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, b, id] {
      const Matrix& gout = nodes_[id].grad;
      if (nodes_[a].requires_grad) {
        EnsureGrad(a);
        Matrix& ga = MutableGrad(a);
        const Matrix& vb2 = nodes_[b].value;
        for (size_t i = 0; i < gout.size(); ++i) {
          ga.data()[i] += gout.data()[i] * vb2.data()[i];
        }
      }
      if (nodes_[b].requires_grad) {
        EnsureGrad(b);
        Matrix& gb = MutableGrad(b);
        const Matrix& va2 = nodes_[a].value;
        for (size_t i = 0; i < gout.size(); ++i) {
          gb.data()[i] += gout.data()[i] * va2.data()[i];
        }
      }
    };
  }
  return id;
}

VarId Tape::ConcatCols(VarId a, VarId b) { return ConcatColsN({a, b}); }

VarId Tape::ConcatColsN(const std::vector<VarId>& parts) {
  HIGNN_CHECK(!parts.empty());
  const size_t rows = value(parts[0]).rows();
  size_t total_cols = 0;
  bool needs = false;
  for (VarId p : parts) {
    HIGNN_CHECK_EQ(value(p).rows(), rows);
    total_cols += value(p).cols();
    needs = needs || nodes_[p].requires_grad;
  }
  Matrix out(rows, total_cols);
  size_t offset = 0;
  for (VarId p : parts) {
    const Matrix& vp = value(p);
    for (size_t r = 0; r < rows; ++r) {
      const float* src = vp.row(r);
      float* dst = out.row(r) + offset;
      for (size_t c = 0; c < vp.cols(); ++c) dst[c] = src[c];
    }
    offset += vp.cols();
  }
  std::vector<VarId> parts_copy = parts;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, parts_copy, id] {
      const Matrix& gout = nodes_[id].grad;
      size_t off = 0;
      for (VarId p : parts_copy) {
        const size_t pc = nodes_[p].value.cols();
        if (nodes_[p].requires_grad) {
          EnsureGrad(p);
          Matrix& gp = MutableGrad(p);
          for (size_t r = 0; r < gout.rows(); ++r) {
            const float* src = gout.row(r) + off;
            float* dst = gp.row(r);
            for (size_t c = 0; c < pc; ++c) dst[c] += src[c];
          }
        }
        off += pc;
      }
    };
  }
  return id;
}

VarId Tape::GatherRows(VarId a, std::vector<int32_t> index) {
  Matrix out = GatherRowsValue(value(a), index);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, idx = std::move(index), id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      for (size_t r = 0; r < idx.size(); ++r) {
        simd::Accumulate(ga.row(static_cast<size_t>(idx[r])), gout.row(r),
                         gout.cols());
      }
    };
  }
  return id;
}

VarId Tape::GatherRowsFrom(const Matrix& src,
                           const std::vector<int32_t>& index) {
  CountFusedAggregate();
  return Emit(GatherRowsValue(src, index), /*requires_grad=*/false, nullptr);
}

VarId Tape::GroupMeanRows(VarId a, const RowGroups& groups) {
  Matrix out = GroupMeanRowsValue(value(a), groups);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, &gs = groups, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      for (size_t g = 0; g < gs.size(); ++g) {
        const size_t begin = gs.offsets[g];
        const size_t end = gs.offsets[g + 1];
        if (begin == end) continue;
        const float inv = 1.0f / static_cast<float>(end - begin);
        const float* src = gout.row(g);
        for (size_t k = begin; k < end; ++k) {
          simd::Axpy(ga.row(static_cast<size_t>(gs.ids[k])), inv, src,
                     gout.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::GroupMeanRowsFrom(const Matrix& src, const RowGroups& groups) {
  CountFusedAggregate();
  return Emit(GroupMeanRowsValue(src, groups), /*requires_grad=*/false,
              nullptr);
}

VarId Tape::GroupWeightedSumRows(VarId a, const RowGroups& groups) {
  Matrix out = GroupWeightedSumRowsValue(value(a), groups);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, &gs = groups, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      for (size_t g = 0; g < gs.size(); ++g) {
        const float* src = gout.row(g);
        for (size_t k = gs.offsets[g]; k < gs.offsets[g + 1]; ++k) {
          simd::Axpy(ga.row(static_cast<size_t>(gs.ids[k])), gs.weights[k],
                     src, gout.cols());
        }
      }
    };
  }
  return id;
}

VarId Tape::GroupWeightedSumRowsFrom(const Matrix& src,
                                     const RowGroups& groups) {
  CountFusedAggregate();
  return Emit(GroupWeightedSumRowsValue(src, groups),
              /*requires_grad=*/false, nullptr);
}

VarId Tape::RowL2Normalize(VarId a, float eps) {
  const Matrix& va = value(a);
  Matrix out = va;
  std::vector<float> inv_norms(va.rows());
  for (size_t r = 0; r < va.rows(); ++r) {
    double total = 0.0;
    const float* src = va.row(r);
    for (size_t c = 0; c < va.cols(); ++c) {
      total += static_cast<double>(src[c]) * src[c];
    }
    const float norm = static_cast<float>(std::sqrt(total));
    inv_norms[r] = norm > eps ? 1.0f / norm : 1.0f;
    float* dst = out.row(r);
    for (size_t c = 0; c < va.cols(); ++c) dst[c] = src[c] * inv_norms[r];
  }
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, inv = std::move(inv_norms), id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      const Matrix& y = nodes_[id].value;
      // dx = (g - (g . y) y) / ||x||
      for (size_t r = 0; r < gout.rows(); ++r) {
        const float* g = gout.row(r);
        const float* yr = y.row(r);
        double dot = 0.0;
        for (size_t c = 0; c < gout.cols(); ++c) {
          dot += static_cast<double>(g[c]) * yr[c];
        }
        float* dst = ga.row(r);
        for (size_t c = 0; c < gout.cols(); ++c) {
          dst[c] += (g[c] - static_cast<float>(dot) * yr[c]) * inv[r];
        }
      }
    };
  }
  return id;
}

VarId Tape::Sigmoid(VarId a) {
  Matrix out = value(a);
  SigmoidInPlace(out);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      const Matrix& y = nodes_[id].value;
      for (size_t i = 0; i < gout.size(); ++i) {
        const float s = y.data()[i];
        ga.data()[i] += gout.data()[i] * s * (1.0f - s);
      }
    };
  }
  return id;
}

VarId Tape::Tanh(VarId a) {
  Matrix out = value(a);
  TanhInPlace(out);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      const Matrix& y = nodes_[id].value;
      for (size_t i = 0; i < gout.size(); ++i) {
        const float t = y.data()[i];
        ga.data()[i] += gout.data()[i] * (1.0f - t * t);
      }
    };
  }
  return id;
}

VarId Tape::Relu(VarId a) { return LeakyRelu(a, 0.0f); }

VarId Tape::LeakyRelu(VarId a, float negative_slope) {
  Matrix out = value(a);
  LeakyReluInPlace(out, negative_slope);
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, negative_slope, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const Matrix& gout = nodes_[id].grad;
      const Matrix& x = nodes_[a].value;
      for (size_t i = 0; i < gout.size(); ++i) {
        const float slope = x.data()[i] >= 0.0f ? 1.0f : negative_slope;
        ga.data()[i] += gout.data()[i] * slope;
      }
    };
  }
  return id;
}

VarId Tape::SumAll(VarId a, float scale) {
  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(value(a).Sum()) * scale;
  const bool needs = nodes_[a].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, a, scale, id] {
      EnsureGrad(a);
      Matrix& ga = MutableGrad(a);
      const float g = scale * nodes_[id].grad(0, 0);
      for (size_t i = 0; i < ga.size(); ++i) ga.data()[i] += g;
    };
  }
  return id;
}

VarId Tape::MeanAll(VarId a) {
  const size_t n = value(a).size();
  HIGNN_CHECK_GT(n, 0u);
  return SumAll(a, 1.0f / static_cast<float>(n));
}

VarId Tape::BceWithLogits(VarId logits, std::vector<float> labels,
                          std::vector<float> weights) {
  const Matrix& vl = value(logits);
  HIGNN_CHECK_EQ(vl.cols(), 1u);
  HIGNN_CHECK_EQ(vl.rows(), labels.size());
  if (weights.empty()) weights.assign(labels.size(), 1.0f);
  HIGNN_CHECK_EQ(weights.size(), labels.size());

  double weight_total = 0.0;
  for (float w : weights) weight_total += w;
  HIGNN_CHECK_GT(weight_total, 0.0);

  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const double x = vl.data()[i];
    const double y = labels[i];
    // Stable: max(x,0) - x*y + log(1+exp(-|x|)) == softplus(x) - x*y.
    loss += weights[i] * (Softplus(x) - x * y);
  }
  loss /= weight_total;

  Matrix out(1, 1);
  out(0, 0) = static_cast<float>(loss);
  const bool needs = nodes_[logits].requires_grad;
  VarId id = Emit(std::move(out), needs, nullptr);
  if (needs) {
    nodes_[id].backward = [this, logits, ls = std::move(labels),
                           ws = std::move(weights), weight_total, id] {
      EnsureGrad(logits);
      float* gl = MutableGrad(logits).data();
      const float g = nodes_[id].grad(0, 0);
      const float* vl2 = nodes_[logits].value.data();
      for (size_t i = 0; i < ls.size(); ++i) {
        const double p = SigmoidScalar(vl2[i]);
        gl[i] += static_cast<float>(g * ws[i] * (p - ls[i]) / weight_total);
      }
    };
  }
  return id;
}

void Tape::Backward(VarId root) {
  HIGNN_CHECK(!backward_done_);
  backward_done_ = true;
  HIGNN_CHECK_GE(root, 0);
  HIGNN_CHECK_LT(static_cast<size_t>(root), nodes_.size());
  HIGNN_CHECK_EQ(value(root).rows(), 1u);
  HIGNN_CHECK_EQ(value(root).cols(), 1u);

  EnsureGrad(root);
  MutableGrad(root)(0, 0) = 1.0f;

  for (VarId id = root; id >= 0; --id) {
    Node& node = nodes_[id];
    if (!node.backward) continue;
    // Skip nodes whose gradient never materialized (not on a path to root).
    if (node.grad.empty()) continue;
    node.backward();
  }
}

}  // namespace hignn
