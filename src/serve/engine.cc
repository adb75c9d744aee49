#include "serve/engine.h"

#include <algorithm>
#include <numeric>

#include "nn/matrix.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Rows per forward, matching CvrModel::Predict's offline chunking. The
// value has no effect on results (rows are independent); it bounds the
// per-forward matrices and sets the exact scan's task size.
constexpr size_t kForwardChunk = 4096;

// Scores `count` rows of width `dim` through `model`; fill(begin, end, out)
// writes rows [begin, end) of the batch into `out`. Up to one forward chunk
// is assembled and forwarded inline on the calling thread; a larger count
// (the exact scan) runs one chunk per pool task, each assembling and
// forwarding only its own rows, so no full-catalogue matrix ever exists.
template <typename Fill>
std::vector<float> ScoreRows(const CvrModel& model, size_t dim, size_t count,
                             const Fill& fill, obs::Event* event) {
  const auto assemble = [&](size_t begin, size_t end) {
    Matrix rows(end - begin, dim);
    fill(begin, end, rows.data());
    return rows;
  };
  std::vector<float> scores(count);
  // Forwards `rows` into scores[begin, begin + rows.rows()).
  const auto forward = [&](const Matrix& rows, size_t begin) {
    // PredictRows only fails on shape mismatch, which the store rules out.
    Result<std::vector<float>> chunk = model.PredictRows(rows);
    std::copy(chunk.ValueOrDie().begin(), chunk.ValueOrDie().end(),
              scores.begin() + begin);
  };
  if (count <= kForwardChunk) {
    const Matrix rows = assemble(0, count);
    obs::Stamp(event, obs::kPhaseRowsAssembled);
    forward(rows, 0);
  } else {
    // Assembly is fused into the chunk tasks, so the whole scan counts
    // as forward time.
    obs::Stamp(event, obs::kPhaseRowsAssembled);
    GlobalThreadPool().ParallelForChunks(
        0, count, (count + kForwardChunk - 1) / kForwardChunk,
        [&](size_t, size_t begin, size_t end) {
          forward(assemble(begin, end), begin);
        });
  }
  obs::Stamp(event, obs::kPhaseForwardDone);
  return scores;
}

}  // namespace

Result<std::unique_ptr<PredictionEngine>> PredictionEngine::Open(
    const std::string& store_path) {
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<EmbeddingStore> store,
                         EmbeddingStore::Open(store_path));
  return std::unique_ptr<PredictionEngine>(
      new PredictionEngine(std::move(store)));
}

PredictionEngine::PredictionEngine(std::unique_ptr<EmbeddingStore> store)
    : store_(std::move(store)) {}

Result<std::vector<float>> PredictionEngine::ScoreBatch(
    const std::vector<ScoreRequest>& batch, obs::Event* event) const {
  if (batch.empty()) return std::vector<float>{};
  for (const ScoreRequest& request : batch) {
    if (request.user < 0 || request.user >= store_->num_users()) {
      return Status::InvalidArgument(
          StrFormat("user id %d out of range [0, %d)", request.user,
                    store_->num_users()));
    }
    if (request.item < 0 || request.item >= store_->num_items()) {
      return Status::InvalidArgument(
          StrFormat("item id %d out of range [0, %d)", request.item,
                    store_->num_items()));
    }
  }
  const size_t dim = static_cast<size_t>(store_->feature_dim());
  return ScoreRows(
      store_->model(), dim, batch.size(),
      [&](size_t begin, size_t end, float* rows) {
        for (size_t i = begin; i < end; ++i) {
          const Status status = store_->FillFeatureRow(
              batch[i].user, batch[i].item, rows + (i - begin) * dim);
          HIGNN_CHECK(status.ok());  // ids were validated above
        }
      },
      event);
}

Result<std::vector<Recommendation>> PredictionEngine::RecommendTopK(
    int32_t user, int32_t k, int32_t beam,
    ClusterTreeIndex::SearchStats* stats, obs::Event* event) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (user < 0 || user >= store_->num_users()) {
    return Status::InvalidArgument(StrFormat(
        "user id %d out of range [0, %d)", user, store_->num_users()));
  }
  const ClusterTreeIndex& index = store_->index();
  std::vector<int32_t> candidates;
  if (beam <= 0 || index.num_levels() == 0) {
    // Exactness knob: no beam (or nothing to route on) means the plain
    // linear scan over every item. No descent ran, so the index-descent
    // stamp stays -1.
    if (stats != nullptr) *stats = ClusterTreeIndex::SearchStats{};
    candidates.resize(static_cast<size_t>(store_->num_items()));
    std::iota(candidates.begin(), candidates.end(), 0);
  } else {
    const CvrModel& model = store_->model();
    const ClusterTreeIndex::RowScorer scorer = [&model](const Matrix& rows) {
      return model.PredictRows(rows);
    };
    HIGNN_ASSIGN_OR_RETURN(
        candidates,
        index.SelectLeaves(store_->UserBlock(user), store_->UserTail(user),
                           beam, scorer, stats));
    obs::Stamp(event, obs::kPhaseIndexDescent);
  }
  // One user's rows: each chunk is one AssembleFeatureRows call.
  const std::vector<float> scores = ScoreRows(
      store_->model(), static_cast<size_t>(store_->feature_dim()),
      candidates.size(),
      [&](size_t begin, size_t end, float* rows) {
        std::vector<ItemSource> items;
        items.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          items.push_back({store_->ItemBlock(candidates[i]),
                           store_->ItemTail(candidates[i])});
        }
        AssembleFeatureRows(store_->layout(), store_->UserBlock(user),
                            store_->UserTail(user), items.data(),
                            items.size(), rows);
      },
      event);
  return TopKByScore(candidates, scores, k);
}

}  // namespace hignn
