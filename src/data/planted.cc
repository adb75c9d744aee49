#include "data/planted.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "nn/matrix.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Cluster-count decay, the same shape Hignn::Fit's DecayedK produces,
// clamped so a level never has more clusters than vertices.
int32_t DecayedCount(int32_t n, double alpha, int32_t min_clusters) {
  const int32_t k =
      static_cast<int32_t>(std::llround(static_cast<double>(n) / alpha));
  return std::max(std::min(min_clusters, n), std::min(k, n));
}

// Balanced contiguous assignment of `n_from` vertices onto `n_to`
// clusters: vertex v -> floor(v * n_to / n_from). Monotone, so cluster
// membership ranges are contiguous — the property the planted user
// targets rely on.
int32_t Assign(int32_t v, int32_t n_from, int32_t n_to) {
  return static_cast<int32_t>(static_cast<int64_t>(v) * n_to / n_from);
}

// Per-cluster code vectors for one level: num_clusters x dim unit
// normals, drawn in fixed (cluster-major) order.
Matrix DrawCodes(int32_t num_clusters, int32_t dim, Rng& rng) {
  Matrix codes(static_cast<size_t>(num_clusters), static_cast<size_t>(dim));
  for (int32_t c = 0; c < num_clusters; ++c) {
    float* row = codes.row(static_cast<size_t>(c));
    for (int32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Normal());
    }
  }
  return codes;
}

}  // namespace

Result<std::unique_ptr<PlantedWorld>> BuildPlantedWorld(
    const PlantedWorldConfig& config) {
  if (config.num_users <= 0 || config.num_items <= 0) {
    return Status::InvalidArgument("planted world needs users and items");
  }
  if (config.level_dim <= 0) {
    return Status::InvalidArgument("level_dim must be positive");
  }
  if (config.alpha <= 1.0) {
    return Status::InvalidArgument("alpha must exceed 1");
  }
  if (config.min_clusters < 1) {
    return Status::InvalidArgument("min_clusters must be positive");
  }
  if (config.cvr_train_samples <= 0 || config.cvr_epochs < 0) {
    return Status::InvalidArgument("bad CVR training budget");
  }

  // Observable world (profiles, item stats, counters) — the store's
  // tail blocks come from here; labels below deliberately do not, so
  // the trained head tracks the planted hierarchy, not the tails.
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  data_config.num_users = config.num_users;
  data_config.num_items = config.num_items;
  data_config.seed = config.seed;
  HIGNN_ASSIGN_OR_RETURN(SyntheticDataset dataset,
                         SyntheticDataset::Generate(data_config));

  // Level shape: right-side (item) counts drive the depth; the left
  // side decays alongside with the same rule.
  std::vector<int32_t> right_counts{config.num_items};  // index l
  std::vector<int32_t> left_counts{config.num_users};
  while (true) {
    const int32_t next = DecayedCount(right_counts.back(), config.alpha,
                                      config.min_clusters);
    if (next >= right_counts.back() && right_counts.size() > 1) break;
    right_counts.push_back(next);
    left_counts.push_back(DecayedCount(left_counts.back(), config.alpha,
                                       config.min_clusters));
    if (next <= config.min_clusters) break;
  }
  const int32_t num_levels = static_cast<int32_t>(right_counts.size()) - 1;
  HIGNN_CHECK_GE(num_levels, 1);

  const int32_t dim = config.level_dim;
  Rng code_rng(config.seed ^ 0xC0DEULL);
  Rng jitter_rng(config.seed ^ 0x717733ULL);

  std::vector<Matrix> right_codes;  // right_codes[l-1]: level-l clusters
  right_codes.reserve(static_cast<size_t>(num_levels));
  for (int32_t l = 1; l <= num_levels; ++l) {
    right_codes.push_back(
        DrawCodes(right_counts[static_cast<size_t>(l)], dim, code_rng));
  }

  std::vector<HignnLevel> levels(static_cast<size_t>(num_levels));
  for (int32_t l = 1; l <= num_levels; ++l) {
    HignnLevel& level = levels[static_cast<size_t>(l - 1)];
    const int32_t items_in = right_counts[static_cast<size_t>(l - 1)];
    const int32_t items_out = right_counts[static_cast<size_t>(l)];
    const int32_t users_in = left_counts[static_cast<size_t>(l - 1)];
    const int32_t users_out = left_counts[static_cast<size_t>(l)];
    const Matrix& codes = right_codes[static_cast<size_t>(l - 1)];

    level.graph.num_left = users_in;
    level.graph.num_right = items_in;
    level.num_left_clusters = users_out;
    level.num_right_clusters = items_out;

    // Item side: each G^{l-1} vertex sits on its level-l ancestor's
    // code plus jitter, so the cluster centroid recovers the code.
    level.right_assignment.resize(static_cast<size_t>(items_in));
    level.right_embeddings =
        Matrix(static_cast<size_t>(items_in), static_cast<size_t>(dim));
    for (int32_t v = 0; v < items_in; ++v) {
      const int32_t parent = Assign(v, items_in, items_out);
      level.right_assignment[static_cast<size_t>(v)] = parent;
      const float* code = codes.row(static_cast<size_t>(parent));
      float* row = level.right_embeddings.row(static_cast<size_t>(v));
      for (int32_t d = 0; d < dim; ++d) {
        row[d] = code[d] + static_cast<float>(
                               jitter_rng.Normal(0.0, config.jitter));
      }
    }

    // User side: a left vertex copies the code of the item cluster its
    // members' planted targets fall into (targets are contiguous, so
    // the whole member range shares one branch up to boundary effects).
    level.left_assignment.resize(static_cast<size_t>(users_in));
    level.left_embeddings =
        Matrix(static_cast<size_t>(users_in), static_cast<size_t>(dim));
    for (int32_t w = 0; w < users_in; ++w) {
      level.left_assignment[static_cast<size_t>(w)] =
          Assign(w, users_in, users_out);
      const int32_t target_cluster =
          std::min(items_out - 1, Assign(w, users_in, items_out));
      const float* code = codes.row(static_cast<size_t>(target_cluster));
      float* row = level.left_embeddings.row(static_cast<size_t>(w));
      for (int32_t d = 0; d < dim; ++d) {
        row[d] = code[d] + static_cast<float>(
                               jitter_rng.Normal(0.0, config.jitter));
      }
    }
  }

  HignnModel model = HignnModel::FromLevels(std::move(levels));
  const FeatureSpec spec = FeatureSpec::HiGnn(num_levels);

  // Planted target of each user: the item whose ancestor codes the
  // user's blocks were built from.
  std::vector<int32_t> user_target(static_cast<size_t>(config.num_users));
  for (int32_t u = 0; u < config.num_users; ++u) {
    user_target[static_cast<size_t>(u)] =
        std::min(config.num_items - 1, Assign(u, config.num_users,
                                              config.num_items));
  }

  // Labels from the planted affinity: positives near the user's target
  // (inside or adjacent to its leaf cluster), negatives uniform. The
  // head trained on these is monotone in the per-level match dots —
  // exactly the landscape the centroid descent routes on.
  const int32_t leaf_width = std::max(
      1, config.num_items / right_counts[1]);
  Rng sample_rng(config.seed ^ 0x5A3B1EULL);
  std::vector<LabeledSample> train_samples;
  train_samples.reserve(static_cast<size_t>(config.cvr_train_samples));
  for (int32_t s = 0; s < config.cvr_train_samples; ++s) {
    const int32_t u = static_cast<int32_t>(
        sample_rng.UniformInt(static_cast<uint64_t>(config.num_users)));
    LabeledSample sample;
    sample.user = u;
    if (sample_rng.Bernoulli(0.5)) {
      const int32_t offset = static_cast<int32_t>(sample_rng.UniformInt(
                                 static_cast<uint64_t>(2 * leaf_width))) -
                             leaf_width;
      sample.item = std::clamp(user_target[static_cast<size_t>(u)] + offset,
                               0, config.num_items - 1);
      sample.label = 1.0f;
    } else {
      sample.item = static_cast<int32_t>(
          sample_rng.UniformInt(static_cast<uint64_t>(config.num_items)));
      sample.label = 0.0f;
    }
    train_samples.push_back(sample);
  }

  HIGNN_ASSIGN_OR_RETURN(
      CvrFeatureBuilder builder,
      CvrFeatureBuilder::Create(&dataset, &model, spec));
  CvrModelConfig cvr_config;
  cvr_config.hidden = {32, 16};
  cvr_config.batch_size = 256;
  cvr_config.epochs = config.cvr_epochs;
  cvr_config.seed = config.seed;
  HIGNN_ASSIGN_OR_RETURN(CvrModel cvr,
                         CvrModel::Create(builder.dim(), cvr_config));
  HIGNN_ASSIGN_OR_RETURN(const float loss,
                         cvr.Train(builder, train_samples));
  HIGNN_LOG(kInfo) << "planted world: " << config.num_users << " users x "
                   << config.num_items << " items, " << num_levels
                   << " levels (d = " << dim << "), cvr train loss "
                   << loss;

  return std::unique_ptr<PlantedWorld>(new PlantedWorld{
      std::move(dataset), std::move(model), spec, std::move(cvr),
      std::move(user_target)});
}

}  // namespace hignn
