#ifndef HIGNN_SERVE_ENGINE_H_
#define HIGNN_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "predict/recommender.h"
#include "serve/embedding_store.h"
#include "util/status.h"

namespace hignn {

/// \brief One scoring request: predict P(purchase | click) for a
/// (user, item) pair.
struct ScoreRequest {
  int32_t user = 0;
  int32_t item = 0;
};

/// \brief In-process scoring engine over an EmbeddingStore: assembles
/// feature rows and runs the stored CVR MLP.
///
/// The engine holds no lock and no mutable state: it reads an immutable
/// store and runs the store's model through the const, tape-free
/// CvrModel::PredictRows. Each request therefore runs start to finish on
/// its caller's thread (a server handler), and concurrent requests scale
/// with the handler count. Only the exact scan, whose batch exceeds one
/// forward chunk, fans its chunks out over the global pool.
///
/// Every kernel on this path gives each output element a fixed chain of
/// operations over its own row. Rows that share leading columns (a
/// one-user batch's user block) share that part of the chain, computed
/// once by MatMulSerial, and it is the same chain each row would run
/// alone. So a pair's score is bitwise identical no matter how requests
/// are batched or how many threads serve them — and identical to the
/// offline CvrModel::Predict on the same pair. That is the property the
/// serving tests pin down.
///
/// The optional `event` out-param receives the rows-assembled,
/// forward-done and (beamed topk) index-descent stamps (DESIGN.md §17).
/// Purely observational — no engine decision reads them — and never
/// written under --obs-off, so that path does not touch the clock.
class PredictionEngine {
 public:
  /// \brief Opens `store_path` (integrity-checked) and readies the model.
  static Result<std::unique_ptr<PredictionEngine>> Open(
      const std::string& store_path);

  /// \brief Scores a batch of pairs; result[i] belongs to batch[i].
  /// Invalid ids fail the whole batch with InvalidArgument before any
  /// forward runs (the caller — the micro-batcher — validates per
  /// request, so a mixed batch never reaches the model).
  Result<std::vector<float>> ScoreBatch(
      const std::vector<ScoreRequest>& batch,
      obs::Event* event = nullptr) const;

  /// \brief The k best items for `user`, ranked by the same TopKByScore
  /// the offline recommender uses (score descending, ties by ascending
  /// item id). `beam` <= 0 — or an empty index (store without an item
  /// hierarchical block) — scores every item: the exact linear scan.
  /// `beam` > 0 goes through the cluster-tree retrieval index: beam-search
  /// descent over the store's hierarchy selects candidate leaves, and
  /// only those are brute-forced through the CVR head (same ScoreBatch
  /// arithmetic). Results are deterministic for any fixed beam regardless
  /// of thread count. `stats` (optional) receives the per-search index
  /// telemetry; it is zeroed on the exact path.
  Result<std::vector<Recommendation>> RecommendTopK(
      int32_t user, int32_t k, int32_t beam = -1,
      ClusterTreeIndex::SearchStats* stats = nullptr,
      obs::Event* event = nullptr) const;

  const EmbeddingStore& store() const { return *store_; }

 private:
  explicit PredictionEngine(std::unique_ptr<EmbeddingStore> store);

  const std::unique_ptr<const EmbeddingStore> store_;
};

}  // namespace hignn

#endif  // HIGNN_SERVE_ENGINE_H_
