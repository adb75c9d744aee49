#ifndef HIGNN_PREDICT_CVR_MODEL_H_
#define HIGNN_PREDICT_CVR_MODEL_H_

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "predict/features.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {

/// \brief Hyper-parameters for the supervised prediction network of
/// Section IV-A (Fig. 2). Paper settings: fully connected layers
/// 256-128-64, learning rate 1e-3, batch 1024, Leaky ReLU hidden
/// activations, L2 regularization, log loss (Eq. 7).
struct CvrModelConfig {
  std::vector<int32_t> hidden = {256, 128, 64};
  float learning_rate = 1e-3f;
  int32_t batch_size = 1024;
  int32_t epochs = 2;
  float weight_decay = 1e-6f;
  /// Random subsample cap on training records per epoch (0 = use all);
  /// lets the benchmark harness bound wall-clock on a laptop.
  int64_t max_train_samples = 0;
  uint64_t seed = 2024;
};

/// \brief The supervised deep network with HiGNN features: an MLP over the
/// CvrFeatureBuilder rows, trained with the log loss of Eq. 7.
class CvrModel {
 public:
  static Result<CvrModel> Create(int32_t input_dim,
                                 const CvrModelConfig& config);

  /// \brief Trains on `samples` using `features`; returns the final
  /// epoch's mean training loss.
  Result<double> Train(const CvrFeatureBuilder& features,
                       const std::vector<LabeledSample>& samples);

  /// \brief Predicted purchase probabilities, aligned with `samples`;
  /// 4096-sample chunks run in parallel on the global pool.
  Result<std::vector<float>> Predict(
      const CvrFeatureBuilder& features,
      const std::vector<LabeledSample>& samples) const;

  /// \brief Probabilities for pre-assembled feature rows (one per row of
  /// `rows`). This is the single forward-pass implementation, offline
  /// (Predict() chunks over it) and online (the serving engine). It is
  /// tape-free, runs on the calling thread, and reads the model only, so
  /// concurrent callers need no lock. Every output row depends only on
  /// its own input row, so a probability is bitwise identical no matter
  /// how rows are batched — the property the online serving path's parity
  /// guarantee rests on.
  Result<std::vector<float>> PredictRows(const Matrix& rows) const;

  /// \brief AUC of Predict() against the sample labels.
  Result<double> EvaluateAuc(const CvrFeatureBuilder& features,
                             const std::vector<LabeledSample>& samples) const;

  /// \brief Serializes topology + exact float weights into the writer's
  /// current checksum section (no header; composes into larger
  /// containers, like the serialization payload codecs).
  void WriteWeightsPayload(BinaryWriter& writer) const;

  /// \brief Reconstructs a model whose forwards are bitwise identical to
  /// the serialized one. Assumes the container was already verified.
  static Result<CvrModel> ReadWeightsPayload(BinaryReader& reader);

  int32_t input_dim() const { return input_dim_; }

 private:
  CvrModel(int32_t input_dim, const CvrModelConfig& config);

  CvrModelConfig config_;
  int32_t input_dim_;
  Mlp mlp_;
};

}  // namespace hignn

#endif  // HIGNN_PREDICT_CVR_MODEL_H_
