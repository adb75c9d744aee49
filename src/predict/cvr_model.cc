#include "predict/cvr_model.h"

#include <algorithm>
#include <cmath>

#include "eval/metrics.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hignn {

Result<CvrModel> CvrModel::Create(int32_t input_dim,
                                  const CvrModelConfig& config) {
  if (input_dim <= 0) {
    return Status::InvalidArgument("input_dim must be positive");
  }
  if (config.hidden.empty()) {
    return Status::InvalidArgument("need at least one hidden layer");
  }
  for (int32_t h : config.hidden) {
    if (h <= 0) return Status::InvalidArgument("hidden sizes must be positive");
  }
  if (config.batch_size <= 0 || config.epochs <= 0) {
    return Status::InvalidArgument("batch_size and epochs must be positive");
  }
  return CvrModel(input_dim, config);
}

CvrModel::CvrModel(int32_t input_dim, const CvrModelConfig& config)
    : config_(config),
      input_dim_(input_dim),
      mlp_([&config, input_dim] {
        std::vector<size_t> dims;
        dims.push_back(static_cast<size_t>(input_dim));
        for (int32_t h : config.hidden) dims.push_back(static_cast<size_t>(h));
        dims.push_back(1);
        Rng rng(config.seed);
        // Leaky ReLU hidden layers, linear output (sigmoid fused into the
        // loss / applied at prediction time).
        return Mlp("cvr", dims, Activation::kLeakyRelu, Activation::kNone,
                   rng);
      }()) {}

Result<double> CvrModel::Train(const CvrFeatureBuilder& features,
                               const std::vector<LabeledSample>& samples) {
  if (samples.empty()) return Status::InvalidArgument("no training samples");
  if (features.dim() != input_dim_) {
    return Status::InvalidArgument("feature dim != model input dim");
  }

  HIGNN_SPAN("cvr.train",
             {{"samples", static_cast<int64_t>(samples.size())},
              {"epochs", config_.epochs}});
  Rng rng(config_.seed ^ 0x5EEDULL);
  Adam optimizer(config_.learning_rate);
  optimizer.set_weight_decay(config_.weight_decay);

  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double last_epoch_loss = 0.0;
  for (int32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    size_t epoch_size = order.size();
    if (config_.max_train_samples > 0) {
      epoch_size = std::min<size_t>(
          epoch_size, static_cast<size_t>(config_.max_train_samples));
    }
    double epoch_loss = 0.0;
    int64_t batches = 0;
    std::vector<LabeledSample> batch;
    for (size_t begin = 0; begin < epoch_size;
         begin += static_cast<size_t>(config_.batch_size)) {
      const size_t end = std::min(
          epoch_size, begin + static_cast<size_t>(config_.batch_size));
      batch.clear();
      std::vector<float> labels;
      labels.reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        batch.push_back(samples[order[k]]);
        labels.push_back(samples[order[k]].label);
      }
      Tape tape;
      VarId x = tape.Input(features.BuildAll(batch));
      VarId logits = mlp_.Forward(tape, x, /*train=*/true);
      VarId loss = tape.BceWithLogits(logits, std::move(labels));
      epoch_loss += tape.value(loss)(0, 0);
      ++batches;
      tape.Backward(loss);
      mlp_.AccumulateGrads(tape);
      optimizer.Step(mlp_.Params());
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches)
                                  : 0.0;
    obs::SeriesAppend("cvr.epoch_loss", last_epoch_loss);
  }
  return last_epoch_loss;
}

Result<std::vector<float>> CvrModel::Predict(
    const CvrFeatureBuilder& features,
    const std::vector<LabeledSample>& samples) const {
  if (features.dim() != input_dim_) {
    return Status::InvalidArgument("feature dim != model input dim");
  }
  // One pool task per chunk: each builds and forwards its own rows, so
  // at most a chunk's matrix per worker exists at once.
  constexpr size_t kChunk = 4096;
  std::vector<float> out(samples.size());
  GlobalThreadPool().ParallelForChunks(
      0, samples.size(), (samples.size() + kChunk - 1) / kChunk,
      [&](size_t, size_t begin, size_t end) {
        Result<std::vector<float>> probs =
            PredictRows(features.BuildBatch(samples, begin, end));
        std::copy(probs.ValueOrDie().begin(), probs.ValueOrDie().end(),
                  out.begin() + begin);
      });
  return out;
}

Result<std::vector<float>> CvrModel::PredictRows(const Matrix& rows) const {
  if (rows.cols() != static_cast<size_t>(input_dim_)) {
    return Status::InvalidArgument("feature dim != model input dim");
  }
  Matrix probs = mlp_.Forward(rows);
  SigmoidInPlace(probs);
  std::vector<float> out(probs.rows());
  for (size_t r = 0; r < probs.rows(); ++r) out[r] = probs(r, 0);
  return out;
}

void CvrModel::WriteWeightsPayload(BinaryWriter& writer) const {
  writer.WriteI32(input_dim_);
  writer.WriteU32(static_cast<uint32_t>(config_.hidden.size()));
  for (int32_t h : config_.hidden) writer.WriteI32(h);
  const std::vector<const Parameter*> params = mlp_.Params();
  writer.WriteU32(static_cast<uint32_t>(params.size()));
  for (const Parameter* p : params) {
    writer.WriteU64(p->value.rows());
    writer.WriteU64(p->value.cols());
    writer.WriteFloats(p->value.data(), p->value.size());
  }
}

Result<CvrModel> CvrModel::ReadWeightsPayload(BinaryReader& reader) {
  HIGNN_ASSIGN_OR_RETURN(int32_t input_dim, reader.ReadI32());
  HIGNN_ASSIGN_OR_RETURN(uint32_t num_hidden, reader.ReadU32());
  if (input_dim <= 0 || num_hidden == 0 || num_hidden > 64) {
    return Status::IOError("corrupt CVR weights: bad topology");
  }
  CvrModelConfig config;
  config.hidden.clear();
  for (uint32_t i = 0; i < num_hidden; ++i) {
    HIGNN_ASSIGN_OR_RETURN(int32_t h, reader.ReadI32());
    if (h <= 0) return Status::IOError("corrupt CVR weights: bad layer size");
    config.hidden.push_back(h);
  }
  CvrModel model(input_dim, config);
  const std::vector<Parameter*> params = model.mlp_.Params();
  HIGNN_ASSIGN_OR_RETURN(uint32_t stored, reader.ReadU32());
  if (stored != params.size()) {
    return Status::IOError("corrupt CVR weights: parameter count mismatch");
  }
  for (Parameter* p : params) {
    HIGNN_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadU64());
    HIGNN_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadU64());
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::IOError("corrupt CVR weights: shape mismatch");
    }
    HIGNN_RETURN_IF_ERROR(reader.ReadFloats(p->value.data(),
                                            p->value.size()));
  }
  return model;
}

Result<double> CvrModel::EvaluateAuc(
    const CvrFeatureBuilder& features,
    const std::vector<LabeledSample>& samples) const {
  HIGNN_ASSIGN_OR_RETURN(std::vector<float> scores,
                         Predict(features, samples));
  std::vector<float> labels;
  labels.reserve(samples.size());
  for (const auto& sample : samples) labels.push_back(sample.label);
  return ComputeAuc(scores, labels);
}

}  // namespace hignn
