#include "core/hignn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/checkpoint.h"
#include "core/training_monitor.h"
#include "graph/coarsen.h"
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

namespace {

// Follows `vertex`'s chain of assignments up to `level`.
int32_t ClusterAt(const std::vector<HignnLevel>& levels, bool left,
                  int32_t vertex, int32_t level) {
  HIGNN_CHECK_GE(level, 1);
  HIGNN_CHECK_LE(static_cast<size_t>(level), levels.size());
  for (int32_t l = 0; l < level; ++l) {
    const HignnLevel& below = levels[static_cast<size_t>(l)];
    const auto& assignment =
        left ? below.left_assignment : below.right_assignment;
    HIGNN_CHECK_LT(static_cast<size_t>(vertex), assignment.size());
    vertex = assignment[static_cast<size_t>(vertex)];
  }
  return vertex;
}

Matrix StackHierarchical(const HignnModel& model, bool left,
                         int32_t max_level) {
  const int32_t levels =
      max_level <= 0 ? model.num_levels()
                     : std::min(max_level, model.num_levels());
  HIGNN_CHECK_GE(levels, 1);
  const size_t d = static_cast<size_t>(model.level_dim());
  const size_t n = static_cast<size_t>(
      left ? model.levels().front().graph.num_left
           : model.levels().front().graph.num_right);
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

int32_t HignnModel::LeftClusterAt(int32_t u, int32_t level) const {
  return ClusterAt(levels_, /*left=*/true, u, level);
}

int32_t HignnModel::RightClusterAt(int32_t i, int32_t level) const {
  return ClusterAt(levels_, /*left=*/false, i, level);
}

Matrix HignnModel::AllHierarchicalLeft(int32_t max_level) const {
  return StackHierarchical(*this, /*left=*/true, max_level);
}

Matrix HignnModel::AllHierarchicalRight(int32_t max_level) const {
  return StackHierarchical(*this, /*left=*/false, max_level);
}

namespace {

// The graph and features a level trains on, (G^{l-1}, X^{l-1}): the
// caller's inputs at level 1, then the latest coarsening, which is the
// only graph owned. The input graph is never copied.
struct LevelInputs {
  const BipartiteGraph* graph;
  const Matrix* left;
  const Matrix* right;
  std::unique_ptr<CoarsenedGraph> coarse;  // G^{l-1}, X^{l-1} when l > 1
};

// (G^l, X^l) <- F(C_u, C_i, G^{l-1}) [Alg. 1 line 6], from finished level
// l's embeddings and assignments.
Status Coarsen(const HignnLevel& level, int32_t l, LevelInputs& inputs) {
  HIGNN_ASSIGN_OR_RETURN(
      CoarsenedGraph next,
      CoarsenBipartiteGraph(*inputs.graph, level.left_embeddings,
                            level.right_embeddings, level.left_assignment,
                            level.num_left_clusters, level.right_assignment,
                            level.num_right_clusters));
  if (next.graph.num_edges() == 0) {
    return Status::Internal(
        StrFormat("coarsened graph at level %d has no edges", l));
  }
  inputs.coarse = std::make_unique<CoarsenedGraph>(std::move(next));
  inputs.graph = &inputs.coarse->graph;
  inputs.left = &inputs.coarse->left_features;
  inputs.right = &inputs.coarse->right_features;
  return Status::OK();
}

// Rebuilds the inputs of the level after `done` by replaying each
// finished level's coarsening, starting from the caller's `inputs`.
// Coarsening is deterministic, so this is the graph the interrupted run
// trained on, provided the levels belong to these inputs: each must have
// trained on the graph its replay gives it, at the config's width.
Result<LevelInputs> ReplayFinishedLevels(const std::vector<HignnLevel>& done,
                                         LevelInputs inputs,
                                         const HignnConfig& config) {
  if (done.size() > static_cast<size_t>(config.levels)) {
    return Status::InvalidArgument("more finished levels than configured");
  }
  const size_t width = config.sage.dims.empty()
                           ? 0
                           : static_cast<size_t>(config.sage.dims.back());
  for (size_t k = 0; k < done.size(); ++k) {
    const int32_t l = static_cast<int32_t>(k) + 1;
    const HignnLevel& level = done[k];
    if (level.graph != GraphShape(*inputs.graph) ||
        level.left_embeddings.cols() != width) {
      return Status::InvalidArgument(StrFormat(
          "level %d did not train on the graph or width its replay gives", l));
    }
    if (l < config.levels) HIGNN_RETURN_IF_ERROR(Coarsen(level, l, inputs));
  }
  return inputs;
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
  if (config.levels < 1 || config.levels > kMaxLevels) {
    return Status::InvalidArgument(StrFormat(
        "HiGNN needs 1 to %d levels, not %d", kMaxLevels, config.levels));
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
  LevelInputs inputs{&graph, &left_features, &right_features, nullptr};
  TrainingMonitor monitor(monitor_config);

  int32_t start_level = 1;
  // Saves are numbered after every checkpoint already in the directory,
  // so pruning never removes this run's newest saves for another run's.
  int64_t next_sequence =
      checkpointing ? NextCheckpointSequence(checkpoint.dir) : 0;
  bool resumed = false;
  LevelTrainingState resume_state;  // how far start_level had trained

  if (checkpointing && checkpoint.resume) {
    Result<TrainingCheckpoint> loaded =
        LoadLatestCheckpoint(checkpoint, fingerprint);
    if (loaded.ok()) {
      TrainingCheckpoint ckpt = std::move(loaded).value();
      Result<LevelInputs> replayed = ReplayFinishedLevels(
          ckpt.completed_levels,
          {&graph, &left_features, &right_features, nullptr}, config);
      if (!replayed.ok()) {
        HIGNN_LOG(kWarning)
            << "ignoring checkpoint seq " << ckpt.sequence
            << ": its levels do not replay onto these inputs ("
            << replayed.status().message() << ")";
      } else {
        resumed = true;
        inputs = std::move(replayed).value();
        start_level = ckpt.level;
        monitor.RestoreState(ckpt.monitor);
        model.levels_ = std::move(ckpt.completed_levels);
        resume_state = std::move(ckpt.training);
        if (config.verbose) {
          HIGNN_LOG(kInfo) << StrFormat(
              "HiGNN resume: checkpoint seq %lld -> level %d step %d",
              static_cast<long long>(ckpt.sequence), ckpt.level,
              resume_state.step);
        }
        if (start_level > config.levels) {
          return model;  // The interrupted run had already finished.
        }
      }
    }
  }

  // Saves "`level` in progress, trained as far as `training`": a
  // boundary passes an empty record (step 0), since a level's step-0
  // state is a pure function of the config seed. The finished levels are
  // lent to the checkpoint for the write, not copied.
  auto save = [&](int32_t level, LevelTrainingState training) -> Status {
    TrainingCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.sequence = next_sequence++;
    ckpt.level = level;
    ckpt.completed_levels = std::move(model.levels_);
    ckpt.training = std::move(training);
    ckpt.monitor = monitor.ExportState();
    const Status status = SaveCheckpoint(ckpt, checkpoint);
    model.levels_ = std::move(ckpt.completed_levels);
    return status;
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
    HIGNN_RETURN_IF_ERROR(save(1, LevelTrainingState()));
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
                              static_cast<int32_t>(inputs.left->cols()),
                              static_cast<int32_t>(inputs.right->cols())));

    // BipartiteSage::Train's loop, plus checkpoints every
    // `step_interval` steps, per-step health verdicts, and divergence
    // rollback. The trainer's plans are freed before EmbedAll and
    // k-means run.
    double loss = 0.0;
    {
      HIGNN_ASSIGN_OR_RETURN(
          SageTrainer trainer,
          SageTrainer::Create(sage, *inputs.graph, *inputs.left, *inputs.right,
                              monitor_config.clip_norm));
      if (l == start_level && resume_state.step > 0) {
        HIGNN_RETURN_IF_ERROR(trainer.Restore(resume_state));
      }
      // Rollback anchor: the level's last durable point (level start, a
      // restored checkpoint, or the latest mid-level save).
      LevelTrainingState anchor = trainer.Capture();

      auto rollback = [&]() -> Status {
        monitor.OnRollback();
        if (monitor.RollbackBudgetExhausted()) {
          return Status::Internal(StrFormat(
              "training diverged at level %d: rollback budget exhausted "
              "after %d rollbacks",
              l, monitor.rollbacks()));
        }
        anchor.learning_rate *= monitor_config.lr_decay;
        HIGNN_RETURN_IF_ERROR(trainer.Restore(anchor));
        obs::SeriesAppend("train.lr", anchor.learning_rate);
        HIGNN_LOG(kWarning) << StrFormat(
            "HiGNN level %d: divergence detected, rolled back to step %d "
            "(lr=%g, rollback %d/%d)",
            l, trainer.step(), anchor.learning_rate, monitor.rollbacks(),
            monitor_config.max_rollbacks);
        return Status::OK();
      };

      while (!trainer.done()) {
        HIGNN_SPAN("fit.step", {{"level", l}, {"step", trainer.step()}});
        const double step_loss = trainer.Step(&monitor);
        obs::SeriesAppend("train.loss", step_loss);
        if (monitor.ObserveLoss(step_loss) == HealthVerdict::kRollback) {
          HIGNN_RETURN_IF_ERROR(rollback());
          continue;
        }
        trainer.Accept(step_loss);
        obs::CounterAdd("train.steps");
        if (checkpointing && checkpoint.step_interval > 0 &&
            trainer.step() % checkpoint.step_interval == 0 && !trainer.done()) {
          anchor = trainer.Capture();
          HIGNN_RETURN_IF_ERROR(save(l, anchor));
          write_run_report();
        }
      }
      loss = trainer.tail_loss();
    }

    HIGNN_ASSIGN_OR_RETURN(
        SageEmbeddings embeddings,
        sage.EmbedAll(*inputs.graph, *inputs.left, *inputs.right));

    // --- C_u^l, C_i^l <- K(Z^l) [Alg. 1 line 5] ---------------------------
    int32_t left_k = 0;
    int32_t right_k = 0;
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult left_clusters,
        ClusterSide(embeddings.left, inputs.graph->num_left(), config,
                    config.seed + static_cast<uint64_t>(l) * 104729 + 1,
                    &left_k));
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult right_clusters,
        ClusterSide(embeddings.right, inputs.graph->num_right(), config,
                    config.seed + static_cast<uint64_t>(l) * 104729 + 2,
                    &right_k));

    HignnLevel level;
    level.graph = *inputs.graph;
    level.left_embeddings = std::move(embeddings.left);
    level.right_embeddings = std::move(embeddings.right);
    level.left_assignment = std::move(left_clusters.assignment);
    level.right_assignment = std::move(right_clusters.assignment);
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
          l, level.graph.num_left, level.graph.num_right,
          static_cast<long long>(level.graph.num_edges), loss, left_k,
          right_k, left_clusters.reseeds, right_clusters.reseeds,
          timer.Seconds());
    }

    if (l < config.levels) HIGNN_RETURN_IF_ERROR(Coarsen(level, l, inputs));
    model.levels_.push_back(std::move(level));

    if (checkpointing) {
      // Level boundary: the finished prefix, nothing of the next level
      // trained yet (level config.levels + 1 marks a completed run).
      HIGNN_RETURN_IF_ERROR(save(l + 1, LevelTrainingState()));
    }
  }
  write_run_report();
  return model;
}

}  // namespace hignn
