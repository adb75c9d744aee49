#ifndef HIGNN_CORE_CHECKPOINT_H_
#define HIGNN_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/hignn.h"
#include "core/training_monitor.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace hignn {

/// \brief Checkpoint policy for Hignn::Fit.
struct CheckpointOptions {
  /// Directory for checkpoint files; empty disables checkpointing. Created
  /// on first save if missing.
  std::string dir;

  /// Also checkpoint every this many SAGE steps within a level (0 =
  /// level boundaries only).
  int32_t step_interval = 0;

  /// Newest checkpoints retained after each save; older ones are pruned.
  int32_t keep_last = 3;

  /// Resume from the newest valid checkpoint in `dir` whose fingerprint
  /// matches the Fit inputs; off, Fit always starts fresh (existing
  /// checkpoints are still overwritten as training progresses).
  bool resume = true;
};

/// \brief Training state at a save point: the finished levels plus where
/// the current level's training stands. It holds no graph: Fit rebuilds
/// the current level's inputs by replaying the coarsening of the
/// finished levels over the input graph. Restoring it and rerunning Fit
/// reproduces the uninterrupted run bit for bit.
struct TrainingCheckpoint {
  /// Hash of the Fit inputs (graph identity + features + config); a
  /// checkpoint from a different run setup is never resumed.
  uint64_t fingerprint = 0;

  /// Monotone save counter; the file with the largest sequence wins.
  int64_t sequence = 0;

  /// 1-based level in progress; L + 1 marks a finished run.
  int32_t level = 1;

  /// Fully finished levels (the model prefix), level - 1 of them.
  std::vector<HignnLevel> completed_levels;

  /// The in-progress level's training (step 0 at a level boundary).
  LevelTrainingState training;

  /// Numerical-health statistics.
  TrainingMonitorState monitor;
};

/// \brief Order-sensitive hash of everything that must match for a
/// checkpoint to be resumable into a Fit call.
uint64_t FingerprintFitInputs(const BipartiteGraph& graph,
                              const Matrix& left_features,
                              const Matrix& right_features,
                              const HignnConfig& config);

/// \brief Path of the checkpoint file for `sequence` inside `dir`.
std::string CheckpointPath(const std::string& dir, int64_t sequence);

/// \brief One past the largest checkpoint sequence in `dir` (0 when it
/// holds none or does not exist). A run numbers its saves from here, so
/// pruning, which keeps the highest sequences, never takes a new save
/// for an older one of another run.
int64_t NextCheckpointSequence(const std::string& dir);

/// \brief Atomically writes `ckpt` to dir/ckpt-<sequence>.hgnn, updates
/// the LATEST manifest, and prunes all but the newest `keep_last` files.
/// Creates `options.dir` if needed. A failure leaves any previous
/// checkpoints intact and loadable.
Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const CheckpointOptions& options);

/// \brief Loads and integrity-checks one checkpoint file.
Result<TrainingCheckpoint> LoadCheckpointFile(const std::string& path);

/// \brief Finds the newest valid checkpoint in `options.dir` whose
/// fingerprint equals `fingerprint`: first via the LATEST manifest, then
/// by scanning ckpt-*.hgnn in descending sequence order (so a corrupt or
/// torn newest file falls back to its predecessor). Returns NotFound when
/// nothing resumable exists — callers treat that as "start fresh".
Result<TrainingCheckpoint> LoadLatestCheckpoint(const CheckpointOptions& options,
                                                uint64_t fingerprint);

}  // namespace hignn

#endif  // HIGNN_CORE_CHECKPOINT_H_
