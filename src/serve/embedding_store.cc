#include "serve/embedding_store.h"

#include <utility>

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

// The profile (user) or statistic (item) tails, built by the offline
// feature builder with a tail-only spec, so their floats are the ones the
// full spec appends.
Result<Matrix> BuildTails(const SyntheticDataset& dataset, bool users) {
  const FeatureSpec tail_spec{0, 0, /*use_profile=*/users,
                              /*use_item_stats=*/!users,
                              /*use_match_features=*/false};
  HIGNN_ASSIGN_OR_RETURN(
      CvrFeatureBuilder builder,
      CvrFeatureBuilder::Create(&dataset, nullptr, tail_spec));
  const int32_t count = users ? dataset.num_users() : dataset.num_items();
  std::vector<LabeledSample> samples;
  samples.reserve(static_cast<size_t>(count));
  for (int32_t id = 0; id < count; ++id) {
    samples.push_back(users ? LabeledSample{id, 0, 0.0f}
                            : LabeledSample{0, id, 0.0f});
  }
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

  const FeatureRowLayout& layout = builder.layout();
  const int32_t chain_levels = model.num_levels();
  const Matrix user_block = spec.user_levels > 0
                                ? model.AllHierarchicalLeft(spec.user_levels)
                                : Matrix();
  const Matrix item_block = spec.item_levels > 0
                                ? model.AllHierarchicalRight(spec.item_levels)
                                : Matrix();
  HIGNN_ASSIGN_OR_RETURN(const Matrix user_tail,
                         BuildTails(dataset, /*users=*/true));
  HIGNN_ASSIGN_OR_RETURN(const Matrix item_tail,
                         BuildTails(dataset, /*users=*/false));

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
  writer.WriteI32(layout.level_dim);
  writer.WriteI32(chain_levels);
  writer.WriteI32(spec.user_levels);
  writer.WriteI32(spec.item_levels);
  writer.WriteU32(spec.use_profile ? 1 : 0);
  writer.WriteU32(spec.use_item_stats ? 1 : 0);
  writer.WriteU32(spec.use_match_features ? 1 : 0);
  writer.WriteI32(layout.match_levels);
  writer.WriteI32(layout.user_block_cols);
  writer.WriteI32(layout.item_block_cols);
  writer.WriteI32(layout.user_tail_dim);
  writer.WriteI32(layout.item_tail_dim);
  writer.WriteI32(layout.feature_dim);
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
  source.geometry = layout;
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
  FeatureRowLayout& layout = store->layout_;
  HIGNN_ASSIGN_OR_RETURN(layout.level_dim, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->chain_levels_, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->spec_.user_levels, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(store->spec_.item_levels, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_profile, reader->ReadU32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_item_stats, reader->ReadU32());
  HIGNN_ASSIGN_OR_RETURN(const uint32_t use_match, reader->ReadU32());
  store->spec_.use_profile = use_profile != 0;
  store->spec_.use_item_stats = use_item_stats != 0;
  store->spec_.use_match_features = use_match != 0;
  HIGNN_ASSIGN_OR_RETURN(layout.match_levels, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(layout.user_block_cols, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(layout.item_block_cols, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(layout.user_tail_dim, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(layout.item_tail_dim, reader->ReadI32());
  HIGNN_ASSIGN_OR_RETURN(layout.feature_dim, reader->ReadI32());

  if (store->num_users_ <= 0 || store->num_items_ <= 0 ||
      layout.level_dim <= 0 || store->chain_levels_ <= 0) {
    return Status::IOError("embedding store meta has non-positive sizes");
  }
  if (layout.user_block_cols != store->spec_.user_levels * layout.level_dim ||
      layout.item_block_cols != store->spec_.item_levels * layout.level_dim) {
    return Status::IOError("embedding store block widths disagree with spec");
  }
  const int32_t expected_dim = layout.user_block_cols +
                               layout.item_block_cols + layout.match_levels +
                               layout.user_tail_dim + layout.item_tail_dim;
  if (layout.feature_dim != expected_dim || layout.feature_dim <= 0) {
    return Status::IOError(
        StrFormat("embedding store feature_dim %d does not match its "
                  "blocks (%d)",
                  layout.feature_dim, expected_dim));
  }

  const size_t users = static_cast<size_t>(store->num_users_);
  const size_t items = static_cast<size_t>(store->num_items_);
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->user_block_,
      reader->BorrowFloats(users *
                           static_cast<size_t>(layout.user_block_cols)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->item_block_,
      reader->BorrowFloats(items *
                           static_cast<size_t>(layout.item_block_cols)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->user_tail_,
      reader->BorrowFloats(users *
                           static_cast<size_t>(layout.user_tail_dim)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->item_tail_,
      reader->BorrowFloats(items *
                           static_cast<size_t>(layout.item_tail_dim)));
  HIGNN_RETURN_IF_ERROR(reader->AlignTo(kRowAlignment));
  HIGNN_ASSIGN_OR_RETURN(
      store->right_chain_,
      reader->BorrowI32s(static_cast<size_t>(store->chain_levels_) * items));

  HIGNN_ASSIGN_OR_RETURN(CvrModel model, CvrModel::ReadWeightsPayload(*reader));
  if (model.input_dim() != layout.feature_dim) {
    return Status::IOError(
        StrFormat("stored CVR model expects %d-dim rows, store provides %d",
                  model.input_dim(), layout.feature_dim));
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
  source.item_block = layout_.item_block_cols > 0 ? item_block_ : nullptr;
  source.item_tail = layout_.item_tail_dim > 0 ? item_tail_ : nullptr;
  source.right_chain = right_chain_;
  source.geometry = layout_;
  return source;
}

const float* EmbeddingStore::UserBlock(int32_t user) const {
  HIGNN_CHECK_GE(user, 0);
  HIGNN_CHECK_LT(user, num_users_);
  return user_block_ + static_cast<size_t>(user) *
                           static_cast<size_t>(layout_.user_block_cols);
}

const float* EmbeddingStore::ItemBlock(int32_t item) const {
  HIGNN_CHECK_GE(item, 0);
  HIGNN_CHECK_LT(item, num_items_);
  return item_block_ + static_cast<size_t>(item) *
                           static_cast<size_t>(layout_.item_block_cols);
}

const float* EmbeddingStore::UserTail(int32_t user) const {
  HIGNN_CHECK_GE(user, 0);
  HIGNN_CHECK_LT(user, num_users_);
  return user_tail_ + static_cast<size_t>(user) *
                          static_cast<size_t>(layout_.user_tail_dim);
}

const float* EmbeddingStore::ItemTail(int32_t item) const {
  HIGNN_CHECK_GE(item, 0);
  HIGNN_CHECK_LT(item, num_items_);
  return item_tail_ + static_cast<size_t>(item) *
                          static_cast<size_t>(layout_.item_tail_dim);
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
  const ItemSource source{ItemBlock(item), ItemTail(item)};
  AssembleFeatureRows(layout_, UserBlock(user), UserTail(user), &source, 1,
                      row);
  return Status::OK();
}

}  // namespace hignn
