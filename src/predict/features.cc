#include "predict/features.h"

#include <algorithm>
#include <cmath>

#include "nn/simd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

constexpr int32_t kProfileDim = 2 + 4 + 3;  // gender, age, power one-hots
constexpr int32_t kUserStatDim = 3;         // log clicks, log buys, rate
constexpr int32_t kUserTailDim = kProfileDim + kUserStatDim;
constexpr int32_t kItemStatDim = 5;  // log clicks, log buys, rate, pop, price

}  // namespace

Result<CvrFeatureBuilder> CvrFeatureBuilder::Create(
    const SyntheticDataset* dataset, const HignnModel* model,
    const FeatureSpec& spec) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset must not be null");
  }
  if (spec.user_levels < 0 || spec.item_levels < 0) {
    return Status::InvalidArgument("levels must be non-negative");
  }
  const bool needs_model = spec.user_levels > 0 || spec.item_levels > 0;
  if (needs_model && model == nullptr) {
    return Status::InvalidArgument(
        "hierarchical feature levels requested but no HignnModel given");
  }
  if (model != nullptr) {
    if (spec.user_levels > model->num_levels() ||
        spec.item_levels > model->num_levels()) {
      return Status::InvalidArgument(
          StrFormat("spec requests %d/%d levels but model has %d",
                    spec.user_levels, spec.item_levels, model->num_levels()));
    }
  }
  return CvrFeatureBuilder(dataset, needs_model ? model : nullptr, spec);
}

CvrFeatureBuilder::CvrFeatureBuilder(const SyntheticDataset* dataset,
                                     const HignnModel* model,
                                     const FeatureSpec& spec)
    : dataset_(dataset), model_(model), spec_(spec) {
  if (spec_.user_levels > 0) {
    user_hier_ = model_->AllHierarchicalLeft(spec_.user_levels);
  }
  if (spec_.item_levels > 0) {
    item_hier_ = model_->AllHierarchicalRight(spec_.item_levels);
  }
  layout_.level_dim = model_ != nullptr ? model_->level_dim() : 0;
  layout_.user_block_cols = static_cast<int32_t>(user_hier_.cols());
  layout_.item_block_cols = static_cast<int32_t>(item_hier_.cols());
  if (spec_.use_match_features) {
    layout_.match_levels = std::min(spec_.user_levels, spec_.item_levels);
  }
  layout_.user_tail_dim = spec_.use_profile ? kUserTailDim : 0;
  layout_.item_tail_dim = spec_.use_item_stats ? kItemStatDim : 0;
  layout_.feature_dim = layout_.user_block_cols + layout_.item_block_cols +
                        layout_.match_levels + layout_.user_tail_dim +
                        layout_.item_tail_dim;
  HIGNN_CHECK_GT(layout_.feature_dim, 0);
}

void AssembleFeatureRows(const FeatureRowLayout& layout,
                         const float* user_block, const float* user_tail,
                         const ItemSource* items, size_t count, float* rows) {
  const size_t dim = static_cast<size_t>(layout.feature_dim);
  for (size_t i = 0; i < count; ++i) {
    float* const begin = rows + i * dim;
    float* row = begin;
    const auto copy = [&row](const float* src, int32_t width) {
      if (width > 0) row = std::copy(src, src + width, row);
    };
    copy(user_block, layout.user_block_cols);
    copy(items[i].block, layout.item_block_cols);
    row += layout.match_levels;  // the dots, from the item blocks in place
    copy(user_tail, layout.user_tail_dim);
    copy(items[i].tail, layout.item_tail_dim);
    HIGNN_CHECK_EQ(row - begin, layout.feature_dim);
  }
  if (layout.match_levels > 0) {
    float* const item_blocks = rows + layout.user_block_cols;
    simd::MatchDots(user_block, item_blocks, dim, count,
                    static_cast<size_t>(layout.match_levels),
                    static_cast<size_t>(layout.level_dim),
                    item_blocks + layout.item_block_cols, dim);
  }
}

void CvrFeatureBuilder::FillRow(const LabeledSample& sample,
                                float* row) const {
  const size_t user = static_cast<size_t>(sample.user);
  const size_t item = static_cast<size_t>(sample.item);
  float user_tail[kUserTailDim] = {};
  float item_tail[kItemStatDim] = {};
  if (spec_.use_profile) {
    const UserProfile& profile = dataset_->profiles()[user];
    user_tail[profile.gender] = 1.0f;
    user_tail[2 + profile.age_bucket] = 1.0f;
    user_tail[6 + profile.purchasing_power] = 1.0f;
    const auto& counters = dataset_->user_counters()[user];
    user_tail[kProfileDim] = std::log1p(static_cast<float>(counters[0]));
    user_tail[kProfileDim + 1] = std::log1p(static_cast<float>(counters[1]));
    user_tail[kProfileDim + 2] =
        counters[0] > 0
            ? static_cast<float>(counters[1]) / static_cast<float>(counters[0])
            : 0.0f;
  }
  if (spec_.use_item_stats) {
    const auto& counters = dataset_->item_counters()[item];
    const ItemMeta& meta = dataset_->items()[item];
    item_tail[0] = std::log1p(static_cast<float>(counters[0]));
    item_tail[1] = std::log1p(static_cast<float>(counters[1]));
    item_tail[2] =
        counters[0] > 0
            ? static_cast<float>(counters[1]) / static_cast<float>(counters[0])
            : 0.0f;
    item_tail[3] = std::log1p(meta.popularity * 100.0f);
    item_tail[4] = std::log1p(meta.price) / 6.0f;
  }
  const ItemSource item_source{
      item_hier_.empty() ? nullptr : item_hier_.row(item), item_tail};
  AssembleFeatureRows(layout_,
                      user_hier_.empty() ? nullptr : user_hier_.row(user),
                      user_tail, &item_source, 1, row);
}

Matrix CvrFeatureBuilder::BuildBatch(const std::vector<LabeledSample>& samples,
                                     size_t begin, size_t end) const {
  HIGNN_CHECK_LE(begin, end);
  HIGNN_CHECK_LE(end, samples.size());
  Matrix out(end - begin, static_cast<size_t>(dim()));
  for (size_t k = begin; k < end; ++k) {
    FillRow(samples[k], out.row(k - begin));
  }
  return out;
}

}  // namespace hignn
