#include "core/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace hignn {

namespace {

constexpr char kManifestName[] = "LATEST";
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".hgnn";

// FNV-1a 64-bit running hash over raw bytes; byte-exact inputs (float
// bit patterns included) so any change to the run setup changes the
// fingerprint.
class Fingerprinter {
 public:
  void Bytes(const void* data, size_t count) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < count; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }

  template <typename T>
  void Value(T value) {
    Bytes(&value, sizeof(value));
  }

  template <typename T>
  void Values(const std::vector<T>& values) {
    Value<uint64_t>(values.size());
    if (!values.empty()) Bytes(values.data(), values.size() * sizeof(T));
  }

  void Shape(const Matrix& m) {
    Value<uint64_t>(m.rows());
    Value<uint64_t>(m.cols());
    if (!m.empty()) Bytes(m.data(), m.size() * sizeof(float));
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

void WriteMonitorState(BinaryWriter& writer, const TrainingMonitorState& m) {
  writer.WriteF64(m.ema);
  writer.WriteI64(m.observed);
  writer.WriteI32(m.rollbacks);
  writer.WriteI64(m.skipped_steps);
}

Result<TrainingMonitorState> ReadMonitorState(BinaryReader& reader) {
  TrainingMonitorState m;
  HIGNN_ASSIGN_OR_RETURN(m.ema, reader.ReadF64());
  HIGNN_ASSIGN_OR_RETURN(m.observed, reader.ReadI64());
  HIGNN_ASSIGN_OR_RETURN(m.rollbacks, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(m.skipped_steps, reader.ReadI64());
  return m;
}

void WriteRngState(BinaryWriter& writer, const RngState& rng) {
  for (uint64_t word : rng.s) writer.WriteU64(word);
  writer.WriteU32(rng.has_cached_normal ? 1 : 0);
  writer.WriteF64(rng.cached_normal);
}

Result<RngState> ReadRngState(BinaryReader& reader) {
  RngState rng;
  for (uint64_t& word : rng.s) {
    HIGNN_ASSIGN_OR_RETURN(word, reader.ReadU64());
  }
  HIGNN_ASSIGN_OR_RETURN(uint32_t cached, reader.ReadU32());
  rng.has_cached_normal = cached != 0;
  HIGNN_ASSIGN_OR_RETURN(rng.cached_normal, reader.ReadF64());
  return rng;
}

void WriteMatrices(BinaryWriter& writer, const std::vector<Matrix>& list) {
  writer.WriteI32(static_cast<int32_t>(list.size()));
  for (const Matrix& m : list) WriteMatrixPayload(writer, m);
}

Result<std::vector<Matrix>> ReadMatrices(BinaryReader& reader,
                                         int32_t max_count) {
  HIGNN_ASSIGN_OR_RETURN(int32_t count, reader.ReadI32());
  if (count < 0 || count > max_count) {
    return Status::IOError(StrFormat("unreasonable checkpoint tensor count %d",
                                     count));
  }
  std::vector<Matrix> list;
  list.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    HIGNN_ASSIGN_OR_RETURN(Matrix m, ReadMatrixPayload(reader));
    list.push_back(std::move(m));
  }
  return list;
}

void WriteTrainingState(BinaryWriter& writer, const LevelTrainingState& state) {
  writer.WriteI32(state.step);
  writer.WriteF32(state.learning_rate);
  writer.WriteF64(state.tail_loss_sum);
  writer.WriteI64(state.tail_count);
  WriteRngState(writer, state.rng);
  WriteMatrices(writer, state.params);
  WriteMatrices(writer, state.opt.tensors);
  writer.WriteI32(static_cast<int32_t>(state.opt.steps.size()));
  for (int64_t step : state.opt.steps) writer.WriteI64(step);
}

Result<LevelTrainingState> ReadTrainingState(BinaryReader& reader) {
  LevelTrainingState state;
  HIGNN_ASSIGN_OR_RETURN(state.step, reader.ReadI32());
  if (state.step < 0) {
    return Status::IOError("checkpoint has a negative training step");
  }
  HIGNN_ASSIGN_OR_RETURN(state.learning_rate, reader.ReadF32());
  HIGNN_ASSIGN_OR_RETURN(state.tail_loss_sum, reader.ReadF64());
  HIGNN_ASSIGN_OR_RETURN(state.tail_count, reader.ReadI64());
  HIGNN_ASSIGN_OR_RETURN(state.rng, ReadRngState(reader));
  HIGNN_ASSIGN_OR_RETURN(state.params, ReadMatrices(reader, 4096));
  HIGNN_ASSIGN_OR_RETURN(state.opt.tensors, ReadMatrices(reader, 8192));
  HIGNN_ASSIGN_OR_RETURN(int32_t num_steps, reader.ReadI32());
  if (num_steps < 0 || num_steps > 4096) {
    return Status::IOError("unreasonable optimizer step count");
  }
  state.opt.steps.reserve(static_cast<size_t>(num_steps));
  for (int32_t i = 0; i < num_steps; ++i) {
    HIGNN_ASSIGN_OR_RETURN(int64_t step, reader.ReadI64());
    state.opt.steps.push_back(step);
  }
  return state;
}

// Sequence encoded in a checkpoint filename, or -1 if the name doesn't
// match ckpt-<digits>.hgnn.
int64_t SequenceFromFilename(const std::string& name) {
  if (!StartsWith(name, kCheckpointPrefix) ||
      !EndsWith(name, kCheckpointSuffix)) {
    return -1;
  }
  const size_t lo = sizeof(kCheckpointPrefix) - 1;
  const size_t hi = name.size() - (sizeof(kCheckpointSuffix) - 1);
  if (hi <= lo) return -1;
  int64_t sequence = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    sequence = sequence * 10 + (name[i] - '0');
    if (sequence < 0) return -1;  // overflow
  }
  return sequence;
}

// Serializes the manifest-update + prune tail of SaveCheckpoint. The
// checkpoint payload itself writes to a unique per-sequence path, but
// LATEST is one shared file and pruning scans the shared directory:
// two threads finishing saves concurrently must not interleave them
// (a stale LATEST pointing at a just-pruned file would break resume).
Mutex g_manifest_mu;

Status WriteManifest(const std::string& dir, int64_t sequence)
    HIGNN_REQUIRES(g_manifest_mu) {
  BinaryWriter writer(dir + "/" + kManifestName);
  if (!writer.ok()) {
    return Status::IOError("cannot open checkpoint manifest in " + dir);
  }
  writer.WriteHeader(kTagManifest);
  writer.WriteI64(sequence);
  return writer.Close();
}

Result<int64_t> ReadManifest(const std::string& dir) {
  BinaryReader reader(dir + "/" + kManifestName);
  HIGNN_RETURN_IF_ERROR(reader.ReadHeader(kTagManifest));
  return reader.ReadI64();
}

// Sequences of the checkpoint files in `dir`, ascending.
std::vector<int64_t> CheckpointSequences(const std::string& dir) {
  std::vector<int64_t> sequences;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const int64_t seq = SequenceFromFilename(entry.path().filename().string());
    if (seq >= 0) sequences.push_back(seq);
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

void PruneCheckpoints(const std::string& dir, int32_t keep_last)
    HIGNN_REQUIRES(g_manifest_mu) {
  if (keep_last <= 0) return;
  const std::vector<int64_t> sequences = CheckpointSequences(dir);
  if (sequences.size() <= static_cast<size_t>(keep_last)) return;
  std::error_code ec;
  const size_t doomed = sequences.size() - static_cast<size_t>(keep_last);
  for (size_t i = 0; i < doomed; ++i) {
    std::filesystem::remove(CheckpointPath(dir, sequences[i]), ec);
  }
}

}  // namespace

uint64_t FingerprintFitInputs(const BipartiteGraph& graph,
                              const Matrix& left_features,
                              const Matrix& right_features,
                              const HignnConfig& config) {
  Fingerprinter fp;
  // Graph identity: dimensions plus the full weighted edge list.
  fp.Value(graph.num_left());
  fp.Value(graph.num_right());
  fp.Value(graph.num_edges());
  for (int64_t k = 0; k < graph.num_edges(); ++k) {
    const WeightedEdge edge = graph.EdgeAt(k);
    fp.Value(edge.u);
    fp.Value(edge.i);
    fp.Value(edge.weight);
  }
  fp.Shape(left_features);
  fp.Shape(right_features);
  // Every config knob that shapes the numeric trajectory. num_threads and
  // verbose are deliberately excluded: results are thread-count invariant,
  // so a resumed run may legally use a different pool size.
  fp.Value(config.levels);
  fp.Value(config.alpha);
  fp.Value(config.min_clusters);
  fp.Value(config.select_k_by_ch);
  fp.Value(config.seed);
  fp.Values(config.sage.dims);
  fp.Values(config.sage.fanouts);
  fp.Value(config.sage.shared_weights);
  fp.Value(config.sage.weighted_aggregator);
  fp.Value(static_cast<int32_t>(config.sage.update_activation));
  fp.Value(config.sage.normalize_output);
  fp.Value(config.sage.negatives_per_edge_user);
  fp.Value(config.sage.negatives_per_edge_item);
  fp.Value(config.sage.negative_edge_weight);
  fp.Value(static_cast<int32_t>(config.sage.scorer));
  fp.Values(config.sage.scorer_hidden);
  fp.Value(config.sage.batch_size);
  fp.Value(config.sage.train_steps);
  fp.Value(config.sage.learning_rate);
  fp.Value(config.sage.weight_decay);
  fp.Value(config.sage.seed);
  fp.Value(config.sage.inference_batch);
  fp.Value(static_cast<int32_t>(config.kmeans.algorithm));
  fp.Value(config.kmeans.max_iters);
  fp.Value(config.kmeans.tol);
  fp.Value(config.kmeans.batch_size);
  fp.Value(config.kmeans.minibatch_steps);
  fp.Value(config.kmeans.kmeanspp_init);
  return fp.hash();
}

std::string CheckpointPath(const std::string& dir, int64_t sequence) {
  return StrFormat("%s/%s%08lld%s", dir.c_str(), kCheckpointPrefix,
                   static_cast<long long>(sequence), kCheckpointSuffix);
}

int64_t NextCheckpointSequence(const std::string& dir) {
  const std::vector<int64_t> sequences = CheckpointSequences(dir);
  return sequences.empty() ? 0 : sequences.back() + 1;
}

Status SaveCheckpoint(const TrainingCheckpoint& ckpt,
                      const CheckpointOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpoint dir not set");
  }
  HIGNN_SPAN("checkpoint.save", {{"sequence", ckpt.sequence}});
  obs::Stopwatch save_timer;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec && !std::filesystem::is_directory(options.dir)) {
    return Status::IOError("cannot create checkpoint dir " + options.dir);
  }

  const std::string path = CheckpointPath(options.dir, ckpt.sequence);
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IOError("cannot open " + path);
  writer.WriteHeader(kTagCheckpoint);

  // Section: the training position.
  writer.WriteU64(ckpt.fingerprint);
  writer.WriteI64(ckpt.sequence);
  writer.WriteI32(ckpt.level);
  WriteMonitorState(writer, ckpt.monitor);

  // Section(s): one per finished level.
  writer.NextSection();
  writer.WriteI32(static_cast<int32_t>(ckpt.completed_levels.size()));
  for (const HignnLevel& level : ckpt.completed_levels) {
    writer.NextSection();
    WriteLevelPayload(writer, level);
  }

  // Section: the in-progress level's training record.
  writer.NextSection();
  WriteTrainingState(writer, ckpt.training);

  HIGNN_RETURN_IF_ERROR(writer.Close());

  // The checkpoint file is durable from here on; a crash before the
  // manifest/prune below loses nothing (load falls back to the scan).
  fault::MaybeCrash("checkpoint.saved");
  if (fault::ShouldFail("checkpoint.saved")) {
    return Status::Internal("fault injection: checkpoint.saved");
  }

  {
    MutexLock manifest_lock(g_manifest_mu);
    const Status manifest = WriteManifest(options.dir, ckpt.sequence);
    if (!manifest.ok()) {
      HIGNN_LOG(kWarning) << "checkpoint manifest update failed: "
                          << manifest.ToString();
    }
    PruneCheckpoints(options.dir, options.keep_last);
  }
  obs::CounterAdd("io.checkpoints_saved");
  obs::LatencyRecordUs("io.checkpoint_latency_us", save_timer.Micros());
  return Status::OK();
}

Result<TrainingCheckpoint> LoadCheckpointFile(const std::string& path) {
  BinaryReader reader(path);
  HIGNN_RETURN_IF_ERROR(reader.ReadHeader(kTagCheckpoint));

  TrainingCheckpoint ckpt;
  HIGNN_ASSIGN_OR_RETURN(ckpt.fingerprint, reader.ReadU64());
  HIGNN_ASSIGN_OR_RETURN(ckpt.sequence, reader.ReadI64());
  HIGNN_ASSIGN_OR_RETURN(ckpt.level, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(ckpt.monitor, ReadMonitorState(reader));

  // The level in progress sits on top of level - 1 finished ones, which
  // form one chain, as in a saved model.
  HIGNN_ASSIGN_OR_RETURN(int32_t num_levels, reader.ReadI32());
  if (ckpt.level < 1 || ckpt.level > kMaxLevels + 1 ||
      num_levels != ckpt.level - 1) {
    return Status::IOError(StrFormat(
        "checkpoint at level %d has %d finished levels; it needs level - 1 "
        "of them, at most %d",
        ckpt.level, num_levels, kMaxLevels));
  }
  std::vector<HignnLevel>& done = ckpt.completed_levels;
  done.reserve(static_cast<size_t>(num_levels));
  for (int32_t l = 0; l < num_levels; ++l) {
    HIGNN_ASSIGN_OR_RETURN(
        HignnLevel level,
        ReadLevelPayload(reader, done.empty() ? nullptr : &done.back()));
    done.push_back(std::move(level));
  }

  HIGNN_ASSIGN_OR_RETURN(ckpt.training, ReadTrainingState(reader));
  return ckpt;
}

Result<TrainingCheckpoint> LoadLatestCheckpoint(const CheckpointOptions& options,
                                                uint64_t fingerprint) {
  if (options.dir.empty()) {
    return Status::NotFound("checkpointing disabled");
  }

  std::vector<int64_t> sequences = CheckpointSequences(options.dir);
  if (sequences.empty()) {
    return Status::NotFound("no checkpoints in " + options.dir);
  }
  // Newest first, but lead with the manifest's pick when it is valid and
  // present (it usually is; after a torn manifest write the plain scan
  // order still recovers).
  std::reverse(sequences.begin(), sequences.end());
  Result<int64_t> manifest = ReadManifest(options.dir);
  if (manifest.ok()) {
    auto it = std::find(sequences.begin(), sequences.end(), manifest.value());
    if (it != sequences.end()) std::rotate(sequences.begin(), it, it + 1);
  }

  for (int64_t seq : sequences) {
    const std::string path = CheckpointPath(options.dir, seq);
    Result<TrainingCheckpoint> loaded = LoadCheckpointFile(path);
    if (!loaded.ok()) {
      HIGNN_LOG(kWarning) << "skipping unreadable checkpoint " << path << ": "
                          << loaded.status().ToString();
      continue;
    }
    if (loaded.value().fingerprint != fingerprint) {
      HIGNN_LOG(kWarning) << "skipping checkpoint " << path
                          << ": fingerprint mismatch (different run setup)";
      continue;
    }
    return loaded;
  }
  return Status::NotFound("no resumable checkpoint in " + options.dir);
}

}  // namespace hignn
