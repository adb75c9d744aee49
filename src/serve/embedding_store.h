#ifndef HIGNN_SERVE_EMBEDDING_STORE_H_
#define HIGNN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/index/cluster_tree.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {

/// \brief Immutable online-serving artifact: everything a scoring node
/// needs to answer a CVR request, in one checksummed container
/// (util/io.h format v2, tag kTagEmbeddingStore).
///
/// The paper's serving story (Sec. IV/VI) precomputes the hierarchical
/// embeddings z^H = CONCAT(z^1..z^L) offline so online CVR scoring is a
/// cheap MLP forward; this file is that hand-off. Byte layout (each ■ a
/// checksum section; raw arrays are 64-byte aligned via AlignTo so the
/// reader can alias rows in place — zero-copy O(1) lookups):
///
///   ■ header    magic "HGNN", version, tag
///   ■ meta      counts, FeatureSpec, block/tail widths, feature_dim
///   ■ user z^H  num_users x (user_levels * d) float32, row-major
///   ■ item z^H  num_items x (item_levels * d) float32
///   ■ user tail profile one-hots + user counters, as FillRow emits them
///   ■ item tail item counters + metadata features
///   ■ chains    per level: item cluster ids (original item -> G^l)
///   ■ mlp       CvrModel topology + exact float weights
///   ■ index     cluster-tree retrieval index: level count + shapes,
///               then per level the centroid block/tail matrices and the
///               child CSR (serve/index/cluster_tree.h)
///
/// The store version is 3; any other version is rejected as IOError
/// (version 2 also carried user chains, which nothing read).
///
/// Tails are produced by the offline CvrFeatureBuilder itself (with only
/// the profile / item-stat blocks enabled), so a serving feature row is
/// reassembled from byte-identical pieces and scores match offline
/// evaluation bit for bit.
class EmbeddingStore {
 public:
  /// \brief Loads and integrity-checks a store file. Truncated or
  /// bit-flipped files fail with IOError before any field is parsed.
  /// The returned store is immutable and self-contained (it owns the
  /// file image the zero-copy rows point into).
  static Result<std::unique_ptr<EmbeddingStore>> Open(
      const std::string& path);

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int32_t level_dim() const { return layout_.level_dim; }
  int32_t chain_levels() const { return chain_levels_; }
  int32_t feature_dim() const { return layout_.feature_dim; }
  const FeatureSpec& spec() const { return spec_; }
  const FeatureRowLayout& layout() const { return layout_; }

  /// \brief Zero-copy row views into the loaded image. Width:
  /// user/item hierarchical blocks are spec().{user,item}_levels *
  /// level_dim() floats; tails are {user,item}_tail_dim() floats.
  const float* UserBlock(int32_t user) const;
  const float* ItemBlock(int32_t item) const;
  const float* UserTail(int32_t user) const;
  const float* ItemTail(int32_t item) const;
  int32_t user_tail_dim() const { return layout_.user_tail_dim; }
  int32_t item_tail_dim() const { return layout_.item_tail_dim; }

  /// \brief Assembles the serving feature row for (user, item) into
  /// `row` (feature_dim() floats) with AssembleFeatureRows, the offline
  /// builder's assembler, over the store's blocks and tails, so the bytes
  /// are identical to the offline builder's row for the same pair.
  Status FillFeatureRow(int32_t user, int32_t item, float* row) const;

  /// \brief The exported CVR predictor. Its forward (PredictRows) is
  /// const and stateless, so any number of threads run it in place.
  const CvrModel& model() const { return *model_; }

  /// \brief The cluster-tree retrieval index over the item hierarchy,
  /// read zero-copy from the store's index sections. Empty
  /// (num_levels() == 0) when the store has no item hierarchical block
  /// to route on — the engine then always serves the exact scan.
  const ClusterTreeIndex& index() const { return *index_; }

  /// \brief The store's own arrays as index-construction input:
  /// ClusterTreeIndex::Build over it reproduces index() byte for byte.
  ClusterTreeIndex::Source IndexSource() const;

 private:
  EmbeddingStore() = default;

  std::unique_ptr<BinaryReader> reader_;  // owns the bytes rows alias
  std::unique_ptr<CvrModel> model_;
  std::unique_ptr<ClusterTreeIndex> index_;
  FeatureSpec spec_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int32_t chain_levels_ = 0;
  FeatureRowLayout layout_;
  const float* user_block_ = nullptr;
  const float* item_block_ = nullptr;
  const float* user_tail_ = nullptr;
  const float* item_tail_ = nullptr;
  const int32_t* right_chain_ = nullptr;  // chain_levels x num_items
};

/// \brief Builds the serving store from a trained hierarchy + predictor:
/// precomputes the hierarchical embedding blocks for `spec`, the
/// profile/statistic tails (via the offline feature builder, so the
/// floats are byte-identical), the item cluster chains, the CVR
/// weights, and the cluster-tree retrieval index, and writes them
/// atomically to `path`. The CLI verb `hignn export-store` is a thin
/// wrapper over this.
Status ExportEmbeddingStore(const HignnModel& model,
                            const SyntheticDataset& dataset,
                            const FeatureSpec& spec, const CvrModel& cvr,
                            const std::string& path);

}  // namespace hignn

#endif  // HIGNN_SERVE_EMBEDDING_STORE_H_
