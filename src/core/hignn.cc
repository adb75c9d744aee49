#include "core/hignn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/checkpoint.h"
#include "core/serialization.h"
#include "core/training_monitor.h"
#include "graph/coarsen.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Cluster count for a side with `n` vertices under the fixed alpha decay.
int32_t DecayedK(int32_t n, double alpha, int32_t min_clusters) {
  const int32_t k = static_cast<int32_t>(
      std::llround(static_cast<double>(n) / alpha));
  return std::max(min_clusters, std::min(k, n));
}

// CH-driven k selection (taxonomy mode): candidates bracket n/alpha.
Result<KMeansResult> ClusterSide(const Matrix& embeddings, int32_t n,
                                 const HignnConfig& config, uint64_t seed,
                                 int32_t* chosen_k) {
  KMeansConfig kmeans = config.kmeans;
  kmeans.seed = seed;
  if (!config.select_k_by_ch) {
    kmeans.k = DecayedK(n, config.alpha, config.min_clusters);
    *chosen_k = kmeans.k;
    return RunKMeans(embeddings, kmeans);
  }
  const int32_t base = DecayedK(n, config.alpha, config.min_clusters);
  std::vector<int32_t> candidates;
  for (double scale : {0.5, 0.75, 1.0, 1.5, 2.0}) {
    const int32_t k = std::max(
        config.min_clusters,
        std::min(n, static_cast<int32_t>(std::llround(base * scale))));
    if (std::find(candidates.begin(), candidates.end(), k) ==
        candidates.end()) {
      candidates.push_back(k);
    }
  }
  return SelectKByCalinskiHarabasz(embeddings, candidates, kmeans, chosen_k);
}

}  // namespace

int32_t HignnModel::level_dim() const {
  HIGNN_CHECK(!levels_.empty());
  return static_cast<int32_t>(levels_.front().left_embeddings.cols());
}

int32_t HignnModel::LeftClusterAt(int32_t u, int32_t level) const {
  HIGNN_CHECK_GE(level, 1);
  HIGNN_CHECK_LE(level, num_levels());
  int32_t vertex = u;
  for (int32_t l = 1; l <= level; ++l) {
    const auto& assignment = levels_[static_cast<size_t>(l - 1)].left_assignment;
    HIGNN_CHECK_LT(static_cast<size_t>(vertex), assignment.size());
    vertex = assignment[static_cast<size_t>(vertex)];
  }
  return vertex;
}

int32_t HignnModel::RightClusterAt(int32_t i, int32_t level) const {
  HIGNN_CHECK_GE(level, 1);
  HIGNN_CHECK_LE(level, num_levels());
  int32_t vertex = i;
  for (int32_t l = 1; l <= level; ++l) {
    const auto& assignment =
        levels_[static_cast<size_t>(l - 1)].right_assignment;
    HIGNN_CHECK_LT(static_cast<size_t>(vertex), assignment.size());
    vertex = assignment[static_cast<size_t>(vertex)];
  }
  return vertex;
}

namespace {

Matrix StackHierarchical(const HignnModel& model, bool left,
                         int32_t max_level) {
  const int32_t levels =
      max_level <= 0 ? model.num_levels()
                     : std::min(max_level, model.num_levels());
  HIGNN_CHECK_GE(levels, 1);
  const size_t d = static_cast<size_t>(model.level_dim());
  const size_t n = left ? model.levels().front().graph.num_left()
                        : model.levels().front().graph.num_right();
  Matrix out(n, static_cast<size_t>(levels) * d);
  for (size_t v = 0; v < n; ++v) {
    int32_t vertex = static_cast<int32_t>(v);
    float* dst = out.row(v);
    for (int32_t l = 1; l <= levels; ++l) {
      const HignnLevel& level = model.levels()[static_cast<size_t>(l - 1)];
      const Matrix& embeddings =
          left ? level.left_embeddings : level.right_embeddings;
      const auto& assignment =
          left ? level.left_assignment : level.right_assignment;
      const float* src = embeddings.row(static_cast<size_t>(vertex));
      std::copy(src, src + d, dst + static_cast<size_t>(l - 1) * d);
      vertex = assignment[static_cast<size_t>(vertex)];
    }
  }
  return out;
}

}  // namespace

Matrix HignnModel::AllHierarchicalLeft(int32_t max_level) const {
  return StackHierarchical(*this, /*left=*/true, max_level);
}

Matrix HignnModel::AllHierarchicalRight(int32_t max_level) const {
  return StackHierarchical(*this, /*left=*/false, max_level);
}

namespace {

// Copies the current parameter values in Params() order.
std::vector<Matrix> SnapshotParams(BipartiteSage& sage) {
  std::vector<Matrix> out;
  std::vector<Parameter*> params = sage.Params();
  out.reserve(params.size());
  for (const Parameter* p : params) out.push_back(p->value);
  return out;
}

// Overwrites the model weights with a snapshot (shape-checked) and clears
// any pending gradients.
Status RestoreParams(BipartiteSage& sage, const std::vector<Matrix>& values) {
  std::vector<Parameter*> params = sage.Params();
  if (params.size() != values.size()) {
    return Status::InvalidArgument("checkpoint parameter count mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (values[i].rows() != params[i]->value.rows() ||
        values[i].cols() != params[i]->value.cols()) {
      return Status::InvalidArgument("checkpoint parameter shape mismatch");
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = values[i];
    params[i]->grad.Fill(0.0f);
  }
  return Status::OK();
}

}  // namespace

Result<HignnModel> Hignn::Fit(const BipartiteGraph& graph,
                              const Matrix& left_features,
                              const Matrix& right_features,
                              const HignnConfig& config) {
  return Fit(graph, left_features, right_features, config, CheckpointOptions(),
             TrainingMonitorConfig());
}

Result<HignnModel> Hignn::Fit(const BipartiteGraph& graph,
                              const Matrix& left_features,
                              const Matrix& right_features,
                              const HignnConfig& config,
                              const CheckpointOptions& checkpoint,
                              const TrainingMonitorConfig& monitor_config) {
  if (config.levels < 1) {
    return Status::InvalidArgument("HiGNN needs at least one level");
  }
  if (graph.num_left() == 0 || graph.num_right() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("graph has no edges");
  }
  SetGlobalThreadPoolThreads(
      config.num_threads < 0 ? 0 : static_cast<size_t>(config.num_threads));
  HIGNN_SPAN("fit", {{"levels", config.levels}});

  const bool checkpointing = !checkpoint.dir.empty();
  const uint64_t fingerprint =
      checkpointing
          ? FingerprintFitInputs(graph, left_features, right_features, config)
          : 0;

  HignnModel model;
  BipartiteGraph current_graph = graph;
  Matrix current_left = left_features;
  Matrix current_right = right_features;
  TrainingMonitor monitor(monitor_config);

  int32_t start_level = 1;
  int64_t next_sequence = 0;
  bool resumed = false;
  bool resume_mid_level = false;
  int32_t resume_step = 0;
  std::vector<Matrix> resume_params;
  OptimizerState resume_opt;
  float resume_lr = 0.0f;
  RngState resume_rng;
  double resume_tail_sum = 0.0;
  int64_t resume_tail_count = 0;

  if (checkpointing && checkpoint.resume) {
    Result<TrainingCheckpoint> loaded =
        LoadLatestCheckpoint(checkpoint, fingerprint);
    if (loaded.ok()) {
      TrainingCheckpoint ckpt = std::move(loaded).value();
      if (ckpt.completed_levels.size() !=
          static_cast<size_t>(ckpt.level - 1)) {
        HIGNN_LOG(kWarning)
            << "ignoring inconsistent checkpoint (completed levels "
            << ckpt.completed_levels.size() << ", level " << ckpt.level << ")";
      } else if (ckpt.level <= config.levels &&
                 !ckpt.completed_levels.empty() &&
                 !CheckLevelChain(ckpt.completed_levels.back(), ckpt.graph)
                      .ok()) {
        HIGNN_LOG(kWarning) << "ignoring inconsistent checkpoint (level "
                            << ckpt.level
                            << " graph does not chain onto the level below)";
      } else {
        resumed = true;
        next_sequence = ckpt.sequence + 1;
        start_level = ckpt.level;
        monitor.RestoreState(ckpt.monitor);
        model.levels_ = std::move(ckpt.completed_levels);
        if (config.verbose) {
          HIGNN_LOG(kInfo) << StrFormat(
              "HiGNN resume: checkpoint seq %lld -> level %d step %d",
              static_cast<long long>(ckpt.sequence), ckpt.level,
              ckpt.sage_step);
        }
        if (ckpt.level > config.levels) {
          return model;  // The interrupted run had already finished.
        }
        current_graph = std::move(ckpt.graph);
        current_left = std::move(ckpt.left_features);
        current_right = std::move(ckpt.right_features);
        if (ckpt.sage_step > 0) {
          resume_mid_level = true;
          resume_step = ckpt.sage_step;
          resume_params = std::move(ckpt.params);
          resume_opt = std::move(ckpt.opt);
          resume_lr = ckpt.learning_rate;
          resume_rng = ckpt.rng;
          resume_tail_sum = ckpt.tail_loss_sum;
          resume_tail_count = ckpt.tail_count;
        }
      }
    }
  }

  // Boundary checkpoint: "about to start `level`, nothing of it trained
  // yet". Weights are omitted — step-0 state is deterministic from the
  // config seed, so resume simply re-creates the level's SAGE.
  auto save_boundary = [&](int32_t level) -> Status {
    TrainingCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.sequence = next_sequence++;
    ckpt.level = level;
    ckpt.sage_step = 0;
    ckpt.completed_levels = model.levels_;
    ckpt.graph = current_graph;
    ckpt.left_features = current_left;
    ckpt.right_features = current_right;
    ckpt.learning_rate = config.sage.learning_rate;
    ckpt.monitor = monitor.ExportState();
    return SaveCheckpoint(ckpt, checkpoint);
  };

  // Observation-only run report next to the checkpoints: refreshed at
  // every durable point so an interrupted run still leaves a snapshot.
  // Failures are logged, never propagated — telemetry must not be able
  // to fail a training run.
  auto write_run_report = [&]() {
    if (!checkpointing || !obs::Enabled()) return;
    const std::string report_path = checkpoint.dir + "/run_report.json";
    if (Status status = obs::WriteRunReport(report_path, fingerprint,
                                            obs::MetricsRegistry::Global());
        !status.ok()) {
      HIGNN_LOG(kWarning) << "run report write failed: " << status.ToString();
    }
  };

  if (checkpointing && !resumed) {
    HIGNN_RETURN_IF_ERROR(save_boundary(1));
    write_run_report();
  }

  for (int32_t l = start_level; l <= config.levels; ++l) {
    HIGNN_SPAN("fit.level", {{"level", l}});
    obs::Stopwatch timer;
    // --- (Z_u^l, Z_i^l) <- BG(G^{l-1}, X^{l-1}) [Alg. 1 line 4] ----------
    BipartiteSageConfig sage_config = config.sage;
    sage_config.seed = config.seed + static_cast<uint64_t>(l) * 7919;
    HIGNN_ASSIGN_OR_RETURN(
        BipartiteSage sage,
        BipartiteSage::Create(sage_config,
                              static_cast<int32_t>(current_left.cols()),
                              static_cast<int32_t>(current_right.cols())));

    // The step loop below replicates BipartiteSage::Train exactly (RNG
    // seeding, optimizer setup, tail-loss bookkeeping), with three
    // additions: checkpoints every `step_interval` steps, per-step health
    // verdicts, and divergence rollback.
    Rng rng(sage_config.seed ^ 0xBEEFULL);
    Adam optimizer(sage_config.learning_rate);
    optimizer.set_weight_decay(sage_config.weight_decay);
    optimizer.set_clip_norm(monitor_config.clip_norm);

    double tail_loss_sum = 0.0;
    int64_t tail_count = 0;
    const int32_t tail_start = sage_config.train_steps * 9 / 10;
    int32_t step = 0;

    if (l == start_level && resume_mid_level) {
      HIGNN_RETURN_IF_ERROR(RestoreParams(sage, resume_params));
      HIGNN_RETURN_IF_ERROR(optimizer.ImportState(sage.Params(), resume_opt));
      optimizer.set_learning_rate(resume_lr);
      rng.RestoreState(resume_rng);
      tail_loss_sum = resume_tail_sum;
      tail_count = resume_tail_count;
      step = resume_step;
    }

    // Rollback anchor: the level's last durable point (level start, a
    // restored checkpoint, or the latest mid-level save).
    struct Anchor {
      int32_t step = 0;
      std::vector<Matrix> params;
      OptimizerState opt;
      float learning_rate = 0.0f;
      RngState rng;
      double tail_loss_sum = 0.0;
      int64_t tail_count = 0;
    } anchor;
    auto capture_anchor = [&]() {
      anchor.step = step;
      anchor.params = SnapshotParams(sage);
      anchor.opt = optimizer.ExportState(sage.Params());
      anchor.learning_rate = optimizer.learning_rate();
      anchor.rng = rng.SaveState();
      anchor.tail_loss_sum = tail_loss_sum;
      anchor.tail_count = tail_count;
    };
    capture_anchor();

    auto save_mid_level = [&]() -> Status {
      TrainingCheckpoint ckpt;
      ckpt.fingerprint = fingerprint;
      ckpt.sequence = next_sequence++;
      ckpt.level = l;
      ckpt.sage_step = step;
      ckpt.completed_levels = model.levels_;
      ckpt.graph = current_graph;
      ckpt.left_features = current_left;
      ckpt.right_features = current_right;
      ckpt.params = SnapshotParams(sage);
      ckpt.opt = optimizer.ExportState(sage.Params());
      ckpt.learning_rate = optimizer.learning_rate();
      ckpt.rng = rng.SaveState();
      ckpt.tail_loss_sum = tail_loss_sum;
      ckpt.tail_count = tail_count;
      ckpt.monitor = monitor.ExportState();
      return SaveCheckpoint(ckpt, checkpoint);
    };

    auto rollback = [&]() -> Status {
      monitor.OnRollback();
      if (monitor.RollbackBudgetExhausted()) {
        return Status::Internal(StrFormat(
            "training diverged at level %d: rollback budget exhausted "
            "after %d rollbacks",
            l, monitor.rollbacks()));
      }
      HIGNN_RETURN_IF_ERROR(RestoreParams(sage, anchor.params));
      HIGNN_RETURN_IF_ERROR(optimizer.ImportState(sage.Params(), anchor.opt));
      anchor.learning_rate *= monitor_config.lr_decay;
      optimizer.set_learning_rate(anchor.learning_rate);
      rng.RestoreState(anchor.rng);
      tail_loss_sum = anchor.tail_loss_sum;
      tail_count = anchor.tail_count;
      step = anchor.step;
      obs::SeriesAppend("train.lr", anchor.learning_rate);
      HIGNN_LOG(kWarning) << StrFormat(
          "HiGNN level %d: divergence detected, rolled back to step %d "
          "(lr=%g, rollback %d/%d)",
          l, step, anchor.learning_rate, monitor.rollbacks(),
          monitor_config.max_rollbacks);
      return Status::OK();
    };

    while (step < sage_config.train_steps) {
      HIGNN_SPAN("fit.step", {{"level", l}, {"step", step}});
      HIGNN_ASSIGN_OR_RETURN(
          double step_loss,
          sage.TrainStep(current_graph, current_left, current_right,
                         optimizer, rng, &monitor));
      obs::SeriesAppend("train.loss", step_loss);
      if (monitor.ObserveLoss(step_loss) == HealthVerdict::kRollback) {
        HIGNN_RETURN_IF_ERROR(rollback());
        continue;
      }
      if (step >= tail_start) {
        tail_loss_sum += step_loss;
        ++tail_count;
      }
      ++step;
      obs::CounterAdd("train.steps");
      if (checkpointing && checkpoint.step_interval > 0 &&
          step % checkpoint.step_interval == 0 &&
          step < sage_config.train_steps) {
        HIGNN_RETURN_IF_ERROR(save_mid_level());
        capture_anchor();
        write_run_report();
      }
    }
    const double loss =
        tail_count > 0 ? tail_loss_sum / static_cast<double>(tail_count) : 0.0;

    HIGNN_ASSIGN_OR_RETURN(
        SageEmbeddings embeddings,
        sage.EmbedAll(current_graph, current_left, current_right));

    // --- C_u^l, C_i^l <- K(Z^l) [Alg. 1 line 5] ---------------------------
    int32_t left_k = 0;
    int32_t right_k = 0;
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult left_clusters,
        ClusterSide(embeddings.left, current_graph.num_left(), config,
                    config.seed + static_cast<uint64_t>(l) * 104729 + 1,
                    &left_k));
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult right_clusters,
        ClusterSide(embeddings.right, current_graph.num_right(), config,
                    config.seed + static_cast<uint64_t>(l) * 104729 + 2,
                    &right_k));

    HignnLevel level;
    level.graph = current_graph;
    level.left_embeddings = embeddings.left;
    level.right_embeddings = embeddings.right;
    level.left_assignment = left_clusters.assignment;
    level.right_assignment = right_clusters.assignment;
    level.num_left_clusters = left_k;
    level.num_right_clusters = right_k;
    level.train_loss = loss;

    obs::CounterAdd("fit.levels_completed");
    obs::SeriesAppend("train.level_loss", loss);
    obs::GaugeSet("fit.level_seconds", timer.Seconds());

    if (config.verbose) {
      HIGNN_LOG(kInfo) << StrFormat(
          "HiGNN level %d: |U|=%d |I|=%d |E|=%lld loss=%.4f Ku=%d Ki=%d "
          "reseeds=%d/%d (%.1fs)",
          l, current_graph.num_left(), current_graph.num_right(),
          static_cast<long long>(current_graph.num_edges()), loss, left_k,
          right_k, left_clusters.reseeds, right_clusters.reseeds,
          timer.Seconds());
    }

    // --- (G^l, X^l) <- F(C_u, C_i, G^{l-1}) [Alg. 1 line 6] ---------------
    if (l < config.levels) {
      HIGNN_ASSIGN_OR_RETURN(
          CoarsenedGraph coarse,
          CoarsenBipartiteGraph(current_graph, embeddings.left,
                                embeddings.right, left_clusters.assignment,
                                left_k, right_clusters.assignment, right_k));
      current_graph = std::move(coarse.graph);
      current_left = std::move(coarse.left_features);
      current_right = std::move(coarse.right_features);
      if (current_graph.num_edges() == 0) {
        return Status::Internal(
            StrFormat("coarsened graph at level %d has no edges", l));
      }
    }
    model.levels_.push_back(std::move(level));

    if (checkpointing) {
      // Level boundary: the finished prefix plus the next level's inputs
      // (level config.levels + 1 marks a completed run).
      HIGNN_RETURN_IF_ERROR(save_boundary(l + 1));
    }
  }
  write_run_report();
  return model;
}

}  // namespace hignn
