#include "sage/bipartite_sage.h"

#include "core/training_monitor.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

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

void BipartiteSage::DrawBatch(const BipartiteGraph& graph,
                              const NegativeSampler& negatives, Rng& rng,
                              StepPlan& plan) const {
  const int32_t batch = static_cast<int32_t>(
      std::min<int64_t>(config_.batch_size, graph.num_edges()));
  const int32_t qu = config_.negatives_per_edge_user;
  const int32_t qi = config_.negatives_per_edge_item;
  std::vector<int32_t>& left_targets = plan.left_targets;
  std::vector<int32_t>& right_targets = plan.right_targets;
  left_targets.clear();
  right_targets.clear();
  plan.row_left.clear();
  plan.row_right.clear();
  plan.row_weight.clear();
  plan.labels.clear();

  // Positive edges (their transformed weights are the first rows'
  // weights) + the negative-sampled opposing vertices.
  for (int32_t k = 0; k < batch; ++k) {
    const WeightedEdge edge = graph.EdgeAt(static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(graph.num_edges()))));
    left_targets.push_back(edge.u);
    right_targets.push_back(edge.i);
    plan.row_weight.push_back(std::log1p(edge.weight));
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

  // Scored rows: positives, then user-negatives, then item-negatives
  // (Eq. 5's three terms).
  for (int32_t k = 0; k < batch; ++k) {
    plan.row_left.push_back(k);
    plan.row_right.push_back(k);
    plan.labels.push_back(1.0f);
  }
  for (int32_t k = 0; k < batch; ++k) {
    for (int32_t j = 0; j < qu; ++j) {
      plan.row_left.push_back(batch + k * qu + j);
      plan.row_right.push_back(k);
      plan.row_weight.push_back(config_.negative_edge_weight);
      plan.labels.push_back(0.0f);
    }
  }
  for (int32_t k = 0; k < batch; ++k) {
    for (int32_t j = 0; j < qi; ++j) {
      plan.row_left.push_back(k);
      plan.row_right.push_back(batch + k * qi + j);
      plan.row_weight.push_back(config_.negative_edge_weight);
      plan.labels.push_back(0.0f);
    }
  }
  DrawExpansion(graph, left_targets, right_targets, rng, plan);
}

void BipartiteSage::DrawExpansion(const BipartiteGraph& graph,
                                  const std::vector<int32_t>& left_targets,
                                  const std::vector<int32_t>& right_targets,
                                  Rng& rng, StepPlan& plan) const {
  const size_t steps = config_.dims.size();
  SidePlan& left = plan.left;
  SidePlan& right = plan.right;
  for (SidePlan* side : {&left, &right}) {
    side->need.resize(steps + 1);
    side->nbrs.resize(steps + 1);
    side->self.resize(steps + 1);
  }
  for (size_t p = 1; p <= steps; ++p) {
    left.need[p].Reset(graph.num_left());
    right.need[p].Reset(graph.num_right());
  }
  for (int32_t v : left_targets) left.need[steps].Intern(v);
  for (int32_t v : right_targets) right.need[steps].Intern(v);

  // --- Dependency expansion (top-down) --------------------------------------
  // Each hop samples the step-p vertices' neighborhoods, then interns each
  // vertex (its self embedding for CONCAT) and its sampled neighbors into
  // the step-(p-1) frontiers.
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
    sampler.SampleBatch(Side::kLeft, left.need[p].ids, fanout, rng,
                        left.nbrs[p]);
    if (p > 1) {
      intern_prev(left.need[p], left.nbrs[p], left.need[p - 1],
                  right.need[p - 1]);
    }
    sampler.SampleBatch(Side::kRight, right.need[p].ids, fanout, rng,
                        right.nbrs[p]);
    if (p > 1) {
      intern_prev(right.need[p], right.nbrs[p], right.need[p - 1],
                  left.need[p - 1]);
    }
  }

  // --- Ids to rows ----------------------------------------------------------
  // Step 1 reads the feature tables by vertex id; above it, rows are the
  // previous step's tape nodes, addressed by frontier index.
  const auto to_rows = [&](SidePlan& side, const SidePlan& opposite,
                           size_t p) {
    RowGroups& groups = side.nbrs[p];
    if (p > 1) {
      for (int32_t& id : groups.ids) id = opposite.need[p - 1].IndexOf(id);
      std::vector<int32_t>& self = side.self[p];
      self.clear();
      for (int32_t v : side.need[p].ids) {
        self.push_back(side.need[p - 1].IndexOf(v));
      }
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
  };
  for (size_t p = 1; p <= steps; ++p) {
    to_rows(left, right, p);
    to_rows(right, left, p);
  }

  // Rows in the caller's target order (targets may contain duplicates;
  // the frontier is deduplicated).
  left.order.clear();
  for (int32_t v : left_targets) {
    left.order.push_back(left.need[steps].IndexOf(v));
  }
  right.order.clear();
  for (int32_t v : right_targets) {
    right.order.push_back(right.need[steps].IndexOf(v));
  }
}

BipartiteSage::BatchEmbedding BipartiteSage::ForwardBatch(
    Tape& tape, const Matrix& left_features, const Matrix& right_features,
    const StepPlan& plan, bool train) {
  const size_t steps = config_.dims.size();
  VarId h_left = kInvalidVar;
  VarId h_right = kInvalidVar;

  for (size_t p = 1; p <= steps; ++p) {
    Dense& m_ui = left_transform_[p - 1];
    Dense& w_u = left_update_[p - 1];
    Dense& m_iu = config_.shared_weights ? left_transform_[p - 1]
                                         : right_transform_[p - 1];
    Dense& w_i = config_.shared_weights ? left_update_[p - 1]
                                        : right_update_[p - 1];

    // At the first step the aggregation and the self rows stream straight
    // from the feature tables; above it they read the previous step's
    // tape nodes.
    const bool fuse_step = p == 1;
    auto build_side = [&](const SidePlan& side, VarId h_opposite_prev,
                          VarId h_self_prev, Dense& transform, Dense& update,
                          const Matrix& opp_feats,
                          const Matrix& self_feats) -> VarId {
      const RowGroups& groups = side.nbrs[p];
      VarId agg;
      if (fuse_step) {
        agg = config_.weighted_aggregator
                  ? tape.GroupWeightedSumRowsFrom(opp_feats, groups)
                  : tape.GroupMeanRowsFrom(opp_feats, groups);
      } else {
        agg = config_.weighted_aggregator
                  ? tape.GroupWeightedSumRows(h_opposite_prev, groups)
                  : tape.GroupMeanRows(h_opposite_prev, groups);
      }
      VarId msg = transform.Forward(tape, agg, train);            // Eq. 1 / 2
      VarId self = fuse_step
                       ? tape.GatherRowsFrom(self_feats, side.need[p].ids)
                       : tape.GatherRows(h_self_prev, side.self[p]);
      VarId h = update.Forward(tape, tape.ConcatCols(self, msg),  // Eq. 3 / 4
                               train);
      if (p == steps && config_.normalize_output) {
        h = tape.RowL2Normalize(h);
      }
      return h;
    };

    VarId next_left = build_side(plan.left, h_right, h_left, m_ui, w_u,
                                 right_features, left_features);
    VarId next_right = build_side(plan.right, h_left, h_right, m_iu, w_i,
                                  left_features, right_features);
    h_left = next_left;
    h_right = next_right;
  }

  BatchEmbedding out;
  out.left = plan.left.order.empty() ? kInvalidVar
                                     : tape.GatherRows(h_left, plan.left.order);
  out.right = plan.right.order.empty()
                  ? kInvalidVar
                  : tape.GatherRows(h_right, plan.right.order);
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

double BipartiteSage::ComputeStep(const StepPlan& plan,
                                  const Matrix& left_features,
                                  const Matrix& right_features,
                                  Adam& optimizer, TrainingMonitor* monitor) {
  Tape tape;
  VarId loss = 0;
  double loss_value = 0.0;
  {
    HIGNN_SPAN("sage.forward");
    BatchEmbedding emb = ForwardBatch(tape, left_features, right_features,
                                      plan, /*train=*/true);
    VarId zl = tape.GatherRows(emb.left, plan.row_left);
    VarId zr = tape.GatherRows(emb.right, plan.row_right);
    VarId logits = ScoreEdges(tape, zl, zr, plan.row_weight, /*train=*/true);
    loss = tape.BceWithLogits(logits, plan.labels);
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

namespace {

Status CheckTrainingInputs(const BipartiteGraph& graph,
                          const Matrix& left_features,
                          const Matrix& right_features) {
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("graph has no edges to train on");
  }
  if (left_features.rows() != static_cast<size_t>(graph.num_left()) ||
      right_features.rows() != static_cast<size_t>(graph.num_right())) {
    return Status::InvalidArgument("feature rows != vertex counts");
  }
  return Status::OK();
}

}  // namespace

Result<double> BipartiteSage::TrainStep(const BipartiteGraph& graph,
                                        const Matrix& left_features,
                                        const Matrix& right_features,
                                        Adam& optimizer, Rng& rng,
                                        TrainingMonitor* monitor) {
  HIGNN_RETURN_IF_ERROR(
      CheckTrainingInputs(graph, left_features, right_features));
  {
    const int64_t batch =
        std::min<int64_t>(config_.batch_size, graph.num_edges());
    HIGNN_SPAN("sage.batch_assembly",
               {{"rows", batch * (1 + config_.negatives_per_edge_user +
                                  config_.negatives_per_edge_item)}});
    const NegativeSampler negatives(graph);
    DrawBatch(graph, negatives, rng, plan_);
  }
  return ComputeStep(plan_, left_features, right_features, optimizer,
                     monitor);
}

Result<double> BipartiteSage::Train(const BipartiteGraph& graph,
                                    const Matrix& left_features,
                                    const Matrix& right_features) {
  HIGNN_ASSIGN_OR_RETURN(
      SageTrainer trainer,
      SageTrainer::Create(*this, graph, left_features, right_features,
                          /*clip_norm=*/5.0f));
  while (!trainer.done()) trainer.Accept(trainer.Step(nullptr));
  return trainer.tail_loss();
}

Result<SageEmbeddings> BipartiteSage::EmbedTargets(
    const BipartiteGraph& graph, const Matrix& left_features,
    const Matrix& right_features, const std::vector<int32_t>& left_targets,
    const std::vector<int32_t>& right_targets, Rng& rng) {
  if (left_features.rows() != static_cast<size_t>(graph.num_left()) ||
      right_features.rows() != static_cast<size_t>(graph.num_right())) {
    return Status::InvalidArgument("feature rows != vertex counts");
  }
  DrawExpansion(graph, left_targets, right_targets, rng, plan_);
  Tape tape;
  BatchEmbedding emb = ForwardBatch(tape, left_features, right_features,
                                    plan_, /*train=*/false);
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

namespace {

// Microsecond buckets for a draw and for the caller's wait on one drawn
// ahead: a fit-small draw takes 150-400 us, and a wait near 0 means the
// draw was fully hidden behind the compute half.
std::vector<double> DrawBoundsUs() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};
}

obs::Histogram& DrawUs() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("sage.draw_us",
                                                  DrawBoundsUs());
  return histogram;
}

obs::Histogram& DrawWaitUs() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("sage.draw_wait_us",
                                                  DrawBoundsUs());
  return histogram;
}

}  // namespace

SageTrainer::SageTrainer(BipartiteSage& sage, const BipartiteGraph& graph,
                         const Matrix& left_features,
                         const Matrix& right_features, float clip_norm)
    : sage_(&sage),
      graph_(&graph),
      left_features_(&left_features),
      right_features_(&right_features),
      negatives_(graph),
      optimizer_(sage.config().learning_rate),
      rng_(sage.config().seed ^ 0xBEEFULL),
      boundary_(rng_.SaveState()) {
  optimizer_.set_weight_decay(sage.config().weight_decay);
  optimizer_.set_clip_norm(clip_norm);
  // A worker's draw records into these; register them on this thread.
  DrawUs();
  DrawWaitUs();
}

Result<SageTrainer> SageTrainer::Create(BipartiteSage& sage,
                                        const BipartiteGraph& graph,
                                        const Matrix& left_features,
                                        const Matrix& right_features,
                                        float clip_norm) {
  HIGNN_RETURN_IF_ERROR(
      CheckTrainingInputs(graph, left_features, right_features));
  return SageTrainer(sage, graph, left_features, right_features, clip_norm);
}

void SageTrainer::Draw(BipartiteSage::StepPlan& plan) {
  obs::Stopwatch timer;
  sage_->DrawBatch(*graph_, negatives_, rng_, plan);
  DrawUs().Record(timer.Micros());
}

double SageTrainer::Step(TrainingMonitor* monitor) {
  BipartiteSage::StepPlan& plan = plans_[current_];
  if (!drawn_) Draw(plan);
  boundary_ = rng_.SaveState();  // where the next step's draw starts
  double loss = 0.0;
  const auto compute = [&] {
    loss = sage_->ComputeStep(plan, *left_features_, *right_features_,
                              optimizer_, monitor);
  };
  if (step_ + 1 >= sage_->config().train_steps) {
    compute();  // the level's last step: nothing to draw ahead
    drawn_ = false;
    return loss;
  }
  BipartiteSage::StepPlan& next = plans_[1 - current_];
  if (!both_drawn_) {
    // Each plan's first draw runs on this thread, so the buffers it
    // sizes come from this thread's malloc arena; later draws reuse them.
    compute();
    Draw(next);
    both_drawn_ = true;
  } else {
    obs::Stopwatch wait;
    GlobalThreadPool().ForkJoin([&] { Draw(next); },
                                [&] {
                                  compute();
                                  wait.Restart();
                                });
    DrawWaitUs().Record(wait.Micros());
  }
  current_ = 1 - current_;
  drawn_ = true;
  return loss;
}

void SageTrainer::Accept(double loss) {
  if (step_ >= sage_->config().train_steps * 9 / 10) {
    tail_loss_sum_ += loss;
    ++tail_count_;
  }
  ++step_;
}

double SageTrainer::tail_loss() const {
  return tail_count_ > 0 ? tail_loss_sum_ / static_cast<double>(tail_count_)
                         : 0.0;
}

LevelTrainingState SageTrainer::Capture() {
  LevelTrainingState state;
  state.step = step_;
  const std::vector<Parameter*> params = sage_->Params();
  state.params.reserve(params.size());
  for (const Parameter* p : params) state.params.push_back(p->value);
  state.opt = optimizer_.ExportState(params);
  state.learning_rate = optimizer_.learning_rate();
  state.rng = boundary_;
  state.tail_loss_sum = tail_loss_sum_;
  state.tail_count = tail_count_;
  return state;
}

Status SageTrainer::Restore(const LevelTrainingState& state) {
  const std::vector<Parameter*> params = sage_->Params();
  if (params.size() != state.params.size()) {
    return Status::InvalidArgument("checkpoint parameter count mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (state.params[i].rows() != params[i]->value.rows() ||
        state.params[i].cols() != params[i]->value.cols()) {
      return Status::InvalidArgument("checkpoint parameter shape mismatch");
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = state.params[i];
    params[i]->grad.Fill(0.0f);
  }
  HIGNN_RETURN_IF_ERROR(optimizer_.ImportState(params, state.opt));
  optimizer_.set_learning_rate(state.learning_rate);
  rng_.RestoreState(state.rng);
  boundary_ = state.rng;
  drawn_ = false;  // a plan drawn ahead came from the discarded stream
  step_ = state.step;
  tail_loss_sum_ = state.tail_loss_sum;
  tail_count_ = state.tail_count;
  return Status::OK();
}

}  // namespace hignn
