#include "serve/embedding_store.h"

#include <algorithm>
#include <cstring>

#include "predict/features.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Raw float/int arrays are placed on 64-byte boundaries (cache line /
// widest vector width) so Borrow* pointers are safe for any aligned
// SIMD load a future kernel might issue.
constexpr size_t kRowAlignment = 64;
// Meta/blocks/tails/item chains/mlp, then the cluster-tree index
// sections. Version 2 also stored user chains, which nothing read.
constexpr uint32_t kStoreVersion = 3;

// Tail widths come from the offline feature builder: a tail-only spec
// measures exactly the profile/statistic block the full spec appends.
Result<Matrix> BuildUserTails(const SyntheticDataset& dataset,
                              int32_t* dim_out) {
  FeatureSpec tail_spec{0, 0, /*use_profile=*/true, /*use_item_stats=*/false,
                        /*use_match_features=*/false};
  HIGNN_ASSIGN_OR_RETURN(
      CvrFeatureBuilder builder,
      CvrFeatureBuilder::Create(&dataset, nullptr, tail_spec));
  std::vector<LabeledSample> samples;
  samples.reserve(static_cast<size_t>(dataset.num_users()));
  for (int32_t u = 0; u < dataset.num_users(); ++u) {
    samples.push_back(LabeledSample{u, 0, 0.0f});
  }
  *dim_out = builder.dim();
  return builder.BuildAll(samples);
}

Result<Matrix> BuildItemTails(const SyntheticDataset& dataset,
                              int32_t* dim_out) {
  FeatureSpec tail_spec{0, 0, /*use_profile=*/false, /*use_item_stats=*/true,
                        /*use_match_features=*/false};
  HIGNN_ASSIGN_OR_RETURN(
      CvrFeatureBuilder builder,
      CvrFeatureBuilder::Create(&dataset, nullptr, tail_spec));
  std::vector<LabeledSample> samples;
  samples.reserve(static_cast<size_t>(dataset.num_items()));
  for (int32_t i = 0; i < dataset.num_items(); ++i) {
    samples.push_back(LabeledSample{0, i, 0.0f});
  }
  *dim_out = builder.dim();
  return builder.BuildAll(samples);
}

}  // namespace

Status ExportEmbeddingStore(const HignnModel& model,
                            const SyntheticDataset& dataset,
                            const FeatureSpec& spec, const CvrModel& cvr,
                            const std::string& path) {
  if (dataset.num_users() <= 0 || dataset.num_items() <= 0) {
    return Status::InvalidArgument("empty dataset");
  }
  if (spec.user_levels <= 0 && spec.item_levels <= 0) {
    return Status::InvalidArgument(
        "store export needs at least one hierarchical block (the DIN "
        "baseline has nothing to precompute)");
  }
  if (!spec.use_profile || !spec.use_item_stats) {
    return Status::InvalidArgument(
        "store export requires the profile and item-statistic blocks");
  }
  // The offline builder is the single source of truth for the row layout;
  // exporting through it guarantees feature_dim and block widths agree
  // with what the CVR model was trained on.
  HIGNN_ASSIGN_OR_RETURN(CvrFeatureBuilder builder,
                         CvrFeatureBuilder::Create(&dataset, &model, spec));
  if (builder.dim() != cvr.input_dim()) {
    return Status::InvalidArgument(
        StrFormat("feature spec produces %d-dim rows but the CVR model "
                  "expects %d",
                  builder.dim(), cvr.input_dim()));
  }

  const int32_t level_dim = model.level_dim();
  const int32_t chain_levels = model.num_levels();
  const Matrix user_block = spec.user_levels > 0
                                ? model.AllHierarchicalLeft(spec.user_levels)
                                : Matrix();
  const Matrix item_block = spec.item_levels > 0
                                ? model.AllHierarchicalRight(spec.item_levels)
                                : Matrix();
  const int32_t match_levels =
      spec.use_match_features ? std::min(spec.user_levels, spec.item_levels)
                              : 0;

  int32_t user_tail_dim = 0;
  int32_t item_tail_dim = 0;
  HIGNN_ASSIGN_OR_RETURN(Matrix user_tail,
                         BuildUserTails(dataset, &user_tail_dim));
  HIGNN_ASSIGN_OR_RETURN(Matrix item_tail,
                         BuildItemTails(dataset, &item_tail_dim));

  BinaryWriter writer(path);
  if (!writer.ok()) {
    return Status::IOError(StrFormat("cannot open %s for writing",
                                     path.c_str()));
  }
  writer.WriteHeader(kTagEmbeddingStore);

  // Meta section: everything the reader needs to index the raw arrays.
  writer.WriteU32(kStoreVersion);
  writer.WriteI32(dataset.num_users());
  writer.WriteI32(dataset.num_items());
  writer.WriteI32(level_dim);
  writer.WriteI32(chain_levels);
  writer.WriteI32(spec.user_levels);
  writer.WriteI32(spec.item_levels);
  writer.WriteU32(spec.use_profile ? 1 : 0);
  writer.WriteU32(spec.use_item_stats ? 1 : 0);
  writer.WriteU32(spec.use_match_features ? 1 : 0);
  writer.WriteI32(match_levels);
  writer.WriteI32(static_cast<int32_t>(user_block.cols()));
  writer.WriteI32(static_cast<int32_t>(item_block.cols()));
  writer.WriteI32(user_tail_dim);
  writer.WriteI32(item_tail_dim);
  writer.WriteI32(builder.dim());
  writer.NextSection();

  writer.AlignTo(kRowAlignment);
  writer.WriteRawFloats(user_block.data(), user_block.size());
  writer.NextSection();

  writer.AlignTo(kRowAlignment);
  writer.WriteRawFloats(item_block.data(), item_block.size());
  writer.NextSection();

  writer.AlignTo(kRowAlignment);
  writer.WriteRawFloats(user_tail.data(), user_tail.size());
  writer.NextSection();

  writer.AlignTo(kRowAlignment);
  writer.WriteRawFloats(item_tail.data(), item_tail.size());
  writer.NextSection();

  // Item cluster chains, composed through the per-level assignments once
  // at export time so the retrieval index reads a chain with one array
  // read.
  std::vector<int32_t> right_chain;
  right_chain.reserve(static_cast<size_t>(chain_levels) *
                      static_cast<size_t>(dataset.num_items()));
  for (int32_t level = 1; level <= chain_levels; ++level) {
    for (int32_t i = 0; i < dataset.num_items(); ++i) {
      right_chain.push_back(model.RightClusterAt(i, level));
    }
  }
  writer.AlignTo(kRowAlignment);
  writer.WriteRawI32s(right_chain.data(), right_chain.size());
  writer.NextSection();

  cvr.WriteWeightsPayload(writer);

  // The builder step of the hierarchy-as-index retrieval path, persisted
  // as checksummed sections so serving nodes load the tree zero-copy
  // instead of recomputing centroids over millions of items.
  ClusterTreeIndex::Source source;
  source.num_items = dataset.num_items();
  source.chain_levels = chain_levels;
  source.item_block = item_block.size() > 0 ? item_block.data() : nullptr;
  source.item_tail = item_tail.size() > 0 ? item_tail.data() : nullptr;
  source.right_chain = right_chain.data();
  source.geometry.level_dim = level_dim;
  source.geometry.user_block_cols = static_cast<int32_t>(user_block.cols());
  source.geometry.item_block_cols = static_cast<int32_t>(item_block.cols());
  source.geometry.match_levels = match_levels;
  source.geometry.user_tail_dim = user_tail_dim;
  source.geometry.item_tail_dim = item_tail_dim;
  source.geometry.feature_dim = builder.dim();
  HIGNN_ASSIGN_OR_RETURN(const ClusterTreeIndex index,
                         ClusterTreeIndex::Build(source));
  writer.NextSection();
  index.WriteSections(writer);
  return writer.Close();
}

Result<std::unique_ptr<EmbeddingStore>> EmbeddingStore::Open(
    const std::string& path) {
  auto reader = std::make_unique<BinaryReader>(path);
  if (!reader->ok()) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  HIGNN_RETURN_IF_ERROR(reader->ReadHeader(kTagEmbeddingStore));

  std::unique_ptr<EmbeddingStore> store(new EmbeddingStore());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t version, reader->ReadU32());
  if (version != kStoreVersion) {
    return Status::IOError(
        StrFormat("unsupported embedding store version %u", version));
  }
  HIGNN_ASSIGN_OR_RETURN(store->num_users_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->num_items_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->level_dim_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->chain_levels_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->spec_.user_levels, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->spec_.item_levels, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_profile, reader->ReadU32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_item_stats, reader->ReadU32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_match, reader->ReadU32());
  store->spec_.use_profile = use_profile != 0;
  store->spec_.use_item_stats = use_item_stats != 0;
  store->spec_.use_match_features = use_match != 0;
  HIGNN_ASSIGN_OR_RETURN(store->match_levels_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->user_block_cols_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->item_block_cols_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->user_tail_dim_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->item_tail_dim_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->feature_dim_, reader->ReadI32());

  if (store->num_users_ <= 0 || store->num_items_ <= 0 ||
      store->level_dim_ <= 0 || store->chain_levels_ <= 0) {
    return Status::IOError("embedding store meta has non-positive sizes");
  }
  if (store->user_block_cols_ !=
          store->spec_.user_levels * store->level_dim_ ||
      store->item_block_cols_ !=
          store->spec_.item_levels * store->level_dim_) {
    return Status::IOError("embedding store block widths disagree with spec");
  }
  const int32_t expected_dim = store->user_block_cols_ +
                               store->item_block_cols_ +
                               store->match_levels_ + store->user_tail_dim_ +
                               store->item_tail_dim_;
  if (store->feature_dim_ != expected_dim || store->feature_dim_ <= 0) {
    return Status::IOError(
        StrFormat("embedding store feature_dim %d does not match its "
                  "blocks (%d)",
                  store->feature_dim_, expected_dim));
  }

  const size_t users = static_cast<size_t>(store->num_users_);
  const size_t items = static_cast<size_t>(store->num_items_);
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->user_block_,
      reader->BorrowFloats(users *
                           static_cast<size_t>(store->user_block_cols_)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->item_block_,
      reader->BorrowFloats(items *
                           static_cast<size_t>(store->item_block_cols_)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->user_tail_,
      reader->BorrowFloats(users *
                           static_cast<size_t>(store->user_tail_dim_)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->item_tail_,
      reader->BorrowFloats(items *
                           static_cast<size_t>(store->item_tail_dim_)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->right_chain_,
      reader->BorrowI32s(static_cast<size_t>(store->chain_levels_) * items));

  HIGNN_ASSIGN_OR_RETURN(CvrModel model, CvrModel::ReadWeightsPayload(*reader));
  if (model.input_dim() != store->feature_dim_) {
    return Status::IOError(
        StrFormat("stored CVR model expects %d-dim rows, store provides %d",
                  model.input_dim(), store->feature_dim_));
  }
  store->model_ = std::make_unique<CvrModel>(std::move(model));

  // Retrieval index: checksummed sections loaded zero-copy, with full
  // structural validation against the arrays just borrowed.
  HIGNN_ASSIGN_OR_RETURN(
      ClusterTreeIndex index,
      ClusterTreeIndex::ReadSections(*reader, store->IndexSource()));
  store->index_ = std::make_unique<ClusterTreeIndex>(std::move(index));

  store->reader_ = std::move(reader);
  return store;
}

ClusterTreeIndex::Source EmbeddingStore::IndexSource() const {
  ClusterTreeIndex::Source source;
  source.num_items = num_items_;
  source.chain_levels = chain_levels_;
  source.item_block = item_block_cols_ > 0 ? item_block_ : nullptr;
  source.item_tail = item_tail_dim_ > 0 ? item_tail_ : nullptr;
  source.right_chain = right_chain_;
  source.geometry.level_dim = level_dim_;
  source.geometry.user_block_cols = user_block_cols_;
  source.geometry.item_block_cols = item_block_cols_;
  source.geometry.match_levels = match_levels_;
  source.geometry.user_tail_dim = user_tail_dim_;
  source.geometry.item_tail_dim = item_tail_dim_;
  source.geometry.feature_dim = feature_dim_;
  return source;
}

const float* EmbeddingStore::UserBlock(int32_t user) const {
  HIGNN_CHECK_GE(user, 0);
  HIGNN_CHECK_LT(user, num_users_);
  return user_block_ +
         static_cast<size_t>(user) * static_cast<size_t>(user_block_cols_);
}

const float* EmbeddingStore::ItemBlock(int32_t item) const {
  HIGNN_CHECK_GE(item, 0);
  HIGNN_CHECK_LT(item, num_items_);
  return item_block_ +
         static_cast<size_t>(item) * static_cast<size_t>(item_block_cols_);
}

const float* EmbeddingStore::UserTail(int32_t user) const {
  HIGNN_CHECK_GE(user, 0);
  HIGNN_CHECK_LT(user, num_users_);
  return user_tail_ +
         static_cast<size_t>(user) * static_cast<size_t>(user_tail_dim_);
}

const float* EmbeddingStore::ItemTail(int32_t item) const {
  HIGNN_CHECK_GE(item, 0);
  HIGNN_CHECK_LT(item, num_items_);
  return item_tail_ +
         static_cast<size_t>(item) * static_cast<size_t>(item_tail_dim_);
}

Status EmbeddingStore::FillFeatureRow(int32_t user, int32_t item,
                                      float* row) const {
  if (user < 0 || user >= num_users_) {
    return Status::InvalidArgument(StrFormat("user id %d out of range [0, %d)",
                                             user, num_users_));
  }
  if (item < 0 || item >= num_items_) {
    return Status::InvalidArgument(StrFormat("item id %d out of range [0, %d)",
                                             item, num_items_));
  }
  std::memset(row, 0, static_cast<size_t>(feature_dim_) * sizeof(float));
  // Block order and arithmetic mirror CvrFeatureBuilder::FillRow; the
  // copies reproduce its bytes and the match dots repeat its exact
  // double-precision accumulation, so the assembled row is bit-identical
  // to the offline builder's.
  size_t offset = 0;
  if (user_block_cols_ > 0) {
    const float* src = UserBlock(user);
    std::copy(src, src + user_block_cols_, row + offset);
    offset += static_cast<size_t>(user_block_cols_);
  }
  if (item_block_cols_ > 0) {
    const float* src = ItemBlock(item);
    std::copy(src, src + item_block_cols_, row + offset);
    offset += static_cast<size_t>(item_block_cols_);
  }
  if (match_levels_ > 0) {
    const size_t d = static_cast<size_t>(level_dim_);
    const float* zu = UserBlock(user);
    const float* zi = ItemBlock(item);
    for (int32_t l = 0; l < match_levels_; ++l) {
      double dot = 0.0;
      const float* ul = zu + static_cast<size_t>(l) * d;
      const float* il = zi + static_cast<size_t>(l) * d;
      for (size_t c = 0; c < d; ++c) dot += static_cast<double>(ul[c]) * il[c];
      row[offset + static_cast<size_t>(l)] = static_cast<float>(dot);
    }
    offset += static_cast<size_t>(match_levels_);
  }
  if (user_tail_dim_ > 0) {
    const float* src = UserTail(user);
    std::copy(src, src + user_tail_dim_, row + offset);
    offset += static_cast<size_t>(user_tail_dim_);
  }
  if (item_tail_dim_ > 0) {
    const float* src = ItemTail(item);
    std::copy(src, src + item_tail_dim_, row + offset);
    offset += static_cast<size_t>(item_tail_dim_);
  }
  HIGNN_CHECK_EQ(offset, static_cast<size_t>(feature_dim_));
  return Status::OK();
}

}  // namespace hignn
