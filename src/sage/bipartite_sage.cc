#include "sage/bipartite_sage.h"

#include "core/training_monitor.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

Result<BipartiteSage> BipartiteSage::Create(const BipartiteSageConfig& config,
                                            int32_t left_feat_dim,
                                            int32_t right_feat_dim) {
  if (config.dims.empty()) {
    return Status::InvalidArgument("dims must have at least one step");
  }
  if (config.fanouts.size() != config.dims.size()) {
    return Status::InvalidArgument(
        StrFormat("fanouts size %zu != dims size %zu (one fanout per hop)",
                  config.fanouts.size(), config.dims.size()));
  }
  for (int32_t d : config.dims) {
    if (d <= 0) return Status::InvalidArgument("dims must be positive");
  }
  for (int32_t f : config.fanouts) {
    if (f <= 0) return Status::InvalidArgument("fanouts must be positive");
  }
  if (left_feat_dim <= 0 || right_feat_dim <= 0) {
    return Status::InvalidArgument("feature dims must be positive");
  }
  if (config.shared_weights && left_feat_dim != right_feat_dim) {
    return Status::InvalidArgument(
        "shared_weights requires equal left/right feature dims "
        "(Section V-B embeds both in one word-vector space)");
  }
  return BipartiteSage(config, left_feat_dim, right_feat_dim);
}

BipartiteSage::BipartiteSage(const BipartiteSageConfig& config,
                             int32_t left_feat_dim, int32_t right_feat_dim)
    : config_(config),
      left_feat_dim_(left_feat_dim),
      right_feat_dim_(right_feat_dim),
      scorer_([&config] {
        const int32_t d = config.dims.back();
        size_t in_dim = static_cast<size_t>(2 * d + 1);
        if (config.scorer == EdgeScorer::kHadamardMlp) {
          in_dim += static_cast<size_t>(d);
        }
        std::vector<size_t> dims;
        dims.push_back(in_dim);
        for (int32_t h : config.scorer_hidden) {
          dims.push_back(static_cast<size_t>(h));
        }
        dims.push_back(1);
        Rng rng(config.seed ^ 0xF00DULL);
        return Mlp("sage.f", dims, Activation::kLeakyRelu, Activation::kNone,
                   rng);
      }()) {
  Rng rng(config.seed);
  const size_t steps = config.dims.size();
  int32_t left_prev = left_feat_dim;
  int32_t right_prev = right_feat_dim;
  for (size_t p = 0; p < steps; ++p) {
    const int32_t out = config.dims[p];
    // M_ui^p maps aggregated right-side embeddings into the left tower's
    // message space (no bias, matching the paper's pure matrix form).
    left_transform_.emplace_back(StrFormat("sage.Mui.%zu", p),
                                 static_cast<size_t>(right_prev),
                                 static_cast<size_t>(out), Activation::kNone,
                                 rng, /*use_bias=*/false);
    left_update_.emplace_back(StrFormat("sage.Wu.%zu", p),
                              static_cast<size_t>(left_prev + out),
                              static_cast<size_t>(out),
                              config.update_activation, rng);
    if (!config.shared_weights) {
      right_transform_.emplace_back(StrFormat("sage.Miu.%zu", p),
                                    static_cast<size_t>(left_prev),
                                    static_cast<size_t>(out),
                                    Activation::kNone, rng,
                                    /*use_bias=*/false);
      right_update_.emplace_back(StrFormat("sage.Wi.%zu", p),
                                 static_cast<size_t>(right_prev + out),
                                 static_cast<size_t>(out),
                                 config.update_activation, rng);
    }
    left_prev = out;
    right_prev = out;
  }
}

std::vector<Parameter*> BipartiteSage::Params() {
  std::vector<Parameter*> out;
  auto collect = [&out](std::vector<Dense>& layers) {
    for (auto& layer : layers) {
      for (Parameter* p : layer.Params()) out.push_back(p);
    }
  };
  collect(left_transform_);
  collect(left_update_);
  collect(right_transform_);
  collect(right_update_);
  for (Parameter* p : scorer_.Params()) out.push_back(p);
  return out;
}

void BipartiteSage::AccumulateGrads(const Tape& tape) {
  for (auto& layer : left_transform_) layer.AccumulateGrads(tape);
  for (auto& layer : left_update_) layer.AccumulateGrads(tape);
  for (auto& layer : right_transform_) layer.AccumulateGrads(tape);
  for (auto& layer : right_update_) layer.AccumulateGrads(tape);
  scorer_.AccumulateGrads(tape);
}

void BipartiteSage::Frontier::Reset(int32_t num_vertices) {
  for (int32_t v : ids) slot[static_cast<size_t>(v)] = -1;
  ids.clear();
  if (slot.size() < static_cast<size_t>(num_vertices)) {
    slot.resize(static_cast<size_t>(num_vertices), -1);
  }
}

int32_t BipartiteSage::Frontier::Intern(int32_t v) {
  HIGNN_CHECK_LT(static_cast<size_t>(v), slot.size());
  int32_t& index = slot[static_cast<size_t>(v)];
  if (index < 0) {
    index = static_cast<int32_t>(ids.size());
    ids.push_back(v);
  }
  return index;
}

int32_t BipartiteSage::Frontier::IndexOf(int32_t v) const {
  const int32_t index = slot[static_cast<size_t>(v)];
  HIGNN_CHECK_GE(index, 0);
  return index;
}

BipartiteSage::BatchEmbedding BipartiteSage::ForwardBatch(
    Tape& tape, const BipartiteGraph& graph, const Matrix& left_features,
    const Matrix& right_features, const std::vector<int32_t>& left_targets,
    const std::vector<int32_t>& right_targets, Rng& rng, bool train) {
  const size_t steps = config_.dims.size();

  // --- Dependency expansion (top-down) --------------------------------------
  // need[p] holds the vertices whose step-p embeddings are required;
  // group k of nbrs[p] is the sampled neighborhood used to compute
  // embedding p of need[p].ids[k] (sampled once, reused in the forward
  // pass).
  // The first SAGE step reads the feature tables directly by global vertex
  // id, so the level-0 frontiers (index 0) are never interned.
  left_frontiers_.resize(steps + 1);
  right_frontiers_.resize(steps + 1);
  for (size_t p = 1; p <= steps; ++p) {
    left_frontiers_[p].Reset(graph.num_left());
    right_frontiers_[p].Reset(graph.num_right());
  }
  std::vector<Frontier>& need_left = left_frontiers_;
  std::vector<Frontier>& need_right = right_frontiers_;
  std::vector<RowGroups> left_nbrs(steps + 1);
  std::vector<RowGroups> right_nbrs(steps + 1);

  for (int32_t v : left_targets) need_left[steps].Intern(v);
  for (int32_t v : right_targets) need_right[steps].Intern(v);

  // Interns each vertex (its self embedding for CONCAT) and its sampled
  // neighbors into the step-(p-1) frontiers.
  const auto intern_prev = [](const Frontier& need, const RowGroups& nbrs,
                              Frontier& self_prev, Frontier& opposite_prev) {
    for (size_t k = 0; k < need.ids.size(); ++k) {
      self_prev.Intern(need.ids[k]);
      for (size_t j = nbrs.offsets[k]; j < nbrs.offsets[k + 1]; ++j) {
        opposite_prev.Intern(nbrs.ids[j]);
      }
    }
  };
  const NeighborSampler sampler(graph);
  for (size_t p = steps; p >= 1; --p) {
    const int32_t fanout = config_.fanouts[steps - p];
    left_nbrs[p] =
        sampler.SampleBatch(Side::kLeft, need_left[p].ids, fanout, rng);
    if (p > 1) {
      intern_prev(need_left[p], left_nbrs[p], need_left[p - 1],
                  need_right[p - 1]);
    }
    right_nbrs[p] =
        sampler.SampleBatch(Side::kRight, need_right[p].ids, fanout, rng);
    if (p > 1) {
      intern_prev(need_right[p], right_nbrs[p], need_right[p - 1],
                  need_left[p - 1]);
    }
  }

  // --- Forward pass (bottom-up) ----------------------------------------------
  VarId h_left = kInvalidVar;
  VarId h_right = kInvalidVar;

  for (size_t p = 1; p <= steps; ++p) {
    Dense& m_ui = left_transform_[p - 1];
    Dense& w_u = left_update_[p - 1];
    Dense& m_iu = config_.shared_weights ? left_transform_[p - 1]
                                         : right_transform_[p - 1];
    Dense& w_i = config_.shared_weights ? left_update_[p - 1]
                                        : right_update_[p - 1];

    // At the first step the group ids ARE the global vertex ids and the
    // aggregation streams straight from the feature tables (opp_feats /
    // self_feats non-null); above it, rows are the previous step's tape
    // nodes, addressed by frontier index.
    const bool fuse_step = p == 1;
    auto build_side =
        [&](const Frontier& need, RowGroups& groups,
            const Frontier& opposite_prev, const Frontier& self_prev,
            VarId h_opposite_prev, VarId h_self_prev, Dense& transform,
            Dense& update, const Matrix* opp_feats,
            const Matrix* self_feats) -> VarId {
      // Above the first step, rows are frontier indices, not vertex ids.
      if (!fuse_step) {
        for (int32_t& id : groups.ids) id = opposite_prev.IndexOf(id);
      }
      if (config_.weighted_aggregator) {
        for (size_t k = 0; k < groups.size(); ++k) {
          float* w = groups.weights.data() + groups.offsets[k];
          const size_t size = groups.GroupSize(k);
          float total = 0.0f;
          for (size_t j = 0; j < size; ++j) total += w[j];
          if (total > 0.0f) {
            for (size_t j = 0; j < size; ++j) w[j] /= total;
          }
        }
      }
      VarId agg;
      if (fuse_step) {
        agg = config_.weighted_aggregator
                  ? tape.GroupWeightedSumRowsFrom(*opp_feats, groups)
                  : tape.GroupMeanRowsFrom(*opp_feats, groups);
      } else {
        agg = config_.weighted_aggregator
                  ? tape.GroupWeightedSumRows(h_opposite_prev,
                                              std::move(groups))
                  : tape.GroupMeanRows(h_opposite_prev, std::move(groups));
      }
      VarId msg = transform.Forward(tape, agg, train);            // Eq. 1 / 2
      VarId self;
      if (fuse_step) {
        self = tape.GatherRowsFrom(*self_feats, need.ids);
      } else {
        std::vector<int32_t> self_index(need.ids.size());
        for (size_t k = 0; k < need.ids.size(); ++k) {
          self_index[k] = self_prev.IndexOf(need.ids[k]);
        }
        self = tape.GatherRows(h_self_prev, std::move(self_index));
      }
      VarId h = update.Forward(tape, tape.ConcatCols(self, msg),  // Eq. 3 / 4
                               train);
      if (p == steps && config_.normalize_output) {
        h = tape.RowL2Normalize(h);
      }
      return h;
    };

    VarId next_left =
        build_side(need_left[p], left_nbrs[p], need_right[p - 1],
                   need_left[p - 1], h_right, h_left, m_ui, w_u,
                   fuse_step ? &right_features : nullptr,
                   fuse_step ? &left_features : nullptr);
    VarId next_right =
        build_side(need_right[p], right_nbrs[p], need_left[p - 1],
                   need_right[p - 1], h_left, h_right, m_iu, w_i,
                   fuse_step ? &left_features : nullptr,
                   fuse_step ? &right_features : nullptr);
    h_left = next_left;
    h_right = next_right;
  }

  // Re-order rows to match the caller's target order (targets may contain
  // duplicates; the frontier is deduplicated).
  std::vector<int32_t> left_order(left_targets.size());
  for (size_t k = 0; k < left_targets.size(); ++k) {
    left_order[k] = need_left[steps].IndexOf(left_targets[k]);
  }
  std::vector<int32_t> right_order(right_targets.size());
  for (size_t k = 0; k < right_targets.size(); ++k) {
    right_order[k] = need_right[steps].IndexOf(right_targets[k]);
  }

  BatchEmbedding out;
  out.left = left_targets.empty() ? kInvalidVar
                                  : tape.GatherRows(h_left, left_order);
  out.right = right_targets.empty() ? kInvalidVar
                                    : tape.GatherRows(h_right, right_order);
  return out;
}

VarId BipartiteSage::ScoreEdges(Tape& tape, VarId left_rows, VarId right_rows,
                                const std::vector<float>& edge_weights,
                                bool train) {
  const size_t n = tape.value(left_rows).rows();
  HIGNN_CHECK_EQ(tape.value(right_rows).rows(), n);
  HIGNN_CHECK_EQ(edge_weights.size(), n);

  if (config_.scorer == EdgeScorer::kDot) {
    // logit = z_u . z_i, computed as rowsum(z_u ⊙ z_i).
    VarId prod = tape.Mul(left_rows, right_rows);
    Matrix ones(tape.value(prod).cols(), 1);
    ones.Fill(1.0f);
    return tape.MatMul(prod, tape.Input(std::move(ones)));
  }

  VarId wcol = tape.Input(Matrix(n, 1, edge_weights));
  VarId features;
  if (config_.scorer == EdgeScorer::kHadamardMlp) {
    VarId prod = tape.Mul(left_rows, right_rows);
    features = tape.ConcatColsN({left_rows, right_rows, prod, wcol});
  } else {
    features = tape.ConcatColsN({left_rows, right_rows, wcol});
  }
  return scorer_.Forward(tape, features, train);
}

Result<double> BipartiteSage::TrainStep(const BipartiteGraph& graph,
                                        const Matrix& left_features,
                                        const Matrix& right_features,
                                        Adam& optimizer, Rng& rng,
                                        TrainingMonitor* monitor) {
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("graph has no edges to train on");
  }
  if (left_features.rows() != static_cast<size_t>(graph.num_left()) ||
      right_features.rows() != static_cast<size_t>(graph.num_right())) {
    return Status::InvalidArgument("feature rows != vertex counts");
  }

  const int32_t batch = static_cast<int32_t>(
      std::min<int64_t>(config_.batch_size, graph.num_edges()));
  const int32_t qu = config_.negatives_per_edge_user;
  const int32_t qi = config_.negatives_per_edge_item;
  const size_t total_rows =
      static_cast<size_t>(batch) * (1 + static_cast<size_t>(qu) +
                                    static_cast<size_t>(qi));

  std::vector<int32_t> left_targets;
  std::vector<int32_t> right_targets;
  std::vector<int32_t> row_left;
  std::vector<int32_t> row_right;
  std::vector<float> row_weight;
  std::vector<float> labels;
  {
    HIGNN_SPAN("sage.batch_assembly",
               {{"rows", static_cast<int64_t>(total_rows)}});
    NegativeSampler negatives(graph);

    // Positive edges + the negative-sampled opposing vertices.
    std::vector<float> pos_weights(static_cast<size_t>(batch));
    left_targets.reserve(static_cast<size_t>(batch * (1 + qu)));
    right_targets.reserve(static_cast<size_t>(batch * (1 + qi)));
    for (int32_t k = 0; k < batch; ++k) {
      const WeightedEdge edge = graph.EdgeAt(
          static_cast<int64_t>(rng.UniformInt(
              static_cast<uint64_t>(graph.num_edges()))));
      left_targets.push_back(edge.u);
      right_targets.push_back(edge.i);
      pos_weights[static_cast<size_t>(k)] = std::log1p(edge.weight);
    }
    for (int32_t k = 0; k < batch; ++k) {
      for (int32_t j = 0; j < qu; ++j) {
        left_targets.push_back(negatives.SampleLeftFor(
            right_targets[static_cast<size_t>(k)], rng));
      }
    }
    for (int32_t k = 0; k < batch; ++k) {
      for (int32_t j = 0; j < qi; ++j) {
        right_targets.push_back(negatives.SampleRightFor(
            left_targets[static_cast<size_t>(k)], rng));
      }
    }

    // Assemble scored rows: positives, then user-negatives, then
    // item-negatives (Eq. 5's three terms).
    row_left.reserve(total_rows);
    row_right.reserve(total_rows);
    row_weight.reserve(total_rows);
    labels.reserve(total_rows);
    for (int32_t k = 0; k < batch; ++k) {
      row_left.push_back(k);
      row_right.push_back(k);
      row_weight.push_back(pos_weights[static_cast<size_t>(k)]);
      labels.push_back(1.0f);
    }
    for (int32_t k = 0; k < batch; ++k) {
      for (int32_t j = 0; j < qu; ++j) {
        row_left.push_back(batch + k * qu + j);
        row_right.push_back(k);
        row_weight.push_back(config_.negative_edge_weight);
        labels.push_back(0.0f);
      }
    }
    for (int32_t k = 0; k < batch; ++k) {
      for (int32_t j = 0; j < qi; ++j) {
        row_left.push_back(k);
        row_right.push_back(batch + k * qi + j);
        row_weight.push_back(config_.negative_edge_weight);
        labels.push_back(0.0f);
      }
    }
  }

  Tape tape;
  VarId loss = 0;
  double loss_value = 0.0;
  {
    HIGNN_SPAN("sage.forward");
    BatchEmbedding emb = ForwardBatch(tape, graph, left_features,
                                      right_features, left_targets,
                                      right_targets, rng, /*train=*/true);
    VarId zl = tape.GatherRows(emb.left, row_left);
    VarId zr = tape.GatherRows(emb.right, row_right);
    VarId logits = ScoreEdges(tape, zl, zr, row_weight, /*train=*/true);
    loss = tape.BceWithLogits(logits, std::move(labels));
    loss_value = tape.value(loss)(0, 0);
  }

  HIGNN_SPAN("sage.backward");
  tape.Backward(loss);
  AccumulateGrads(tape);
  std::vector<Parameter*> params = Params();
  if (monitor != nullptr && !monitor->GradientsFinite(params)) {
    // Poisoned gradients (NaN/inf) would corrupt the weights and the Adam
    // moments; drop the update, keep the parameters intact.
    for (Parameter* p : params) p->grad.Fill(0.0f);
    return loss_value;
  }
  optimizer.Step(params);
  return loss_value;
}

Result<double> BipartiteSage::Train(const BipartiteGraph& graph,
                                    const Matrix& left_features,
                                    const Matrix& right_features) {
  Rng rng(config_.seed ^ 0xBEEFULL);
  Adam optimizer(config_.learning_rate);
  optimizer.set_weight_decay(config_.weight_decay);
  optimizer.set_clip_norm(5.0f);

  double tail_loss = 0.0;
  int32_t tail_count = 0;
  const int32_t tail_start = config_.train_steps * 9 / 10;
  for (int32_t step = 0; step < config_.train_steps; ++step) {
    HIGNN_ASSIGN_OR_RETURN(
        double loss,
        TrainStep(graph, left_features, right_features, optimizer, rng));
    if (step >= tail_start) {
      tail_loss += loss;
      ++tail_count;
    }
  }
  return tail_count > 0 ? tail_loss / tail_count : 0.0;
}

Result<SageEmbeddings> BipartiteSage::EmbedTargets(
    const BipartiteGraph& graph, const Matrix& left_features,
    const Matrix& right_features, const std::vector<int32_t>& left_targets,
    const std::vector<int32_t>& right_targets, Rng& rng) {
  if (left_features.rows() != static_cast<size_t>(graph.num_left()) ||
      right_features.rows() != static_cast<size_t>(graph.num_right())) {
    return Status::InvalidArgument("feature rows != vertex counts");
  }
  Tape tape;
  BatchEmbedding emb =
      ForwardBatch(tape, graph, left_features, right_features, left_targets,
                   right_targets, rng, /*train=*/false);
  SageEmbeddings out;
  out.left = left_targets.empty() ? Matrix(0, static_cast<size_t>(output_dim()))
                                  : tape.value(emb.left);
  out.right = right_targets.empty()
                  ? Matrix(0, static_cast<size_t>(output_dim()))
                  : tape.value(emb.right);
  return out;
}

Result<SageEmbeddings> BipartiteSage::EmbedAll(const BipartiteGraph& graph,
                                               const Matrix& left_features,
                                               const Matrix& right_features) {
  HIGNN_SPAN("sage.embed_all",
             {{"left", graph.num_left()}, {"right", graph.num_right()}});
  Rng rng(config_.seed ^ 0xCAFEULL);
  SageEmbeddings all;
  all.left = Matrix(static_cast<size_t>(graph.num_left()),
                    static_cast<size_t>(output_dim()));
  all.right = Matrix(static_cast<size_t>(graph.num_right()),
                     static_cast<size_t>(output_dim()));

  const int32_t chunk = std::max(1, config_.inference_batch);
  for (int32_t begin = 0; begin < graph.num_left(); begin += chunk) {
    const int32_t end = std::min(graph.num_left(), begin + chunk);
    std::vector<int32_t> targets;
    targets.reserve(static_cast<size_t>(end - begin));
    for (int32_t v = begin; v < end; ++v) targets.push_back(v);
    HIGNN_ASSIGN_OR_RETURN(
        SageEmbeddings part,
        EmbedTargets(graph, left_features, right_features, targets, {}, rng));
    for (int32_t v = begin; v < end; ++v) {
      const float* src = part.left.row(static_cast<size_t>(v - begin));
      float* dst = all.left.row(static_cast<size_t>(v));
      std::copy(src, src + part.left.cols(), dst);
    }
  }
  for (int32_t begin = 0; begin < graph.num_right(); begin += chunk) {
    const int32_t end = std::min(graph.num_right(), begin + chunk);
    std::vector<int32_t> targets;
    targets.reserve(static_cast<size_t>(end - begin));
    for (int32_t v = begin; v < end; ++v) targets.push_back(v);
    HIGNN_ASSIGN_OR_RETURN(
        SageEmbeddings part,
        EmbedTargets(graph, left_features, right_features, {}, targets, rng));
    for (int32_t v = begin; v < end; ++v) {
      const float* src = part.right.row(static_cast<size_t>(v - begin));
      float* dst = all.right.row(static_cast<size_t>(v));
      std::copy(src, src + part.right.cols(), dst);
    }
  }
  return all;
}

}  // namespace hignn
