#include "serve/index/cluster_tree.h"

#include <algorithm>
#include <numeric>

#include "predict/recommender.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Matches the store's raw-array placement (serve/embedding_store.cc):
// centroid and CSR arrays land on 64-byte boundaries so borrowed
// pointers are safe for any aligned SIMD load.
constexpr size_t kRowAlignment = 64;

Status ValidateSource(const ClusterTreeIndex::Source& source) {
  if (source.num_items <= 0) {
    return Status::InvalidArgument("cluster tree needs at least one item");
  }
  if (source.chain_levels <= 0) {
    return Status::InvalidArgument("cluster tree needs at least one level");
  }
  if (source.right_chain == nullptr) {
    return Status::InvalidArgument("cluster tree needs the item chains");
  }
  const FeatureRowLayout& g = source.geometry;
  if (g.feature_dim != g.user_block_cols + g.item_block_cols +
                           g.match_levels + g.user_tail_dim +
                           g.item_tail_dim) {
    return Status::InvalidArgument(
        "index feature geometry does not add up to feature_dim");
  }
  if (g.item_block_cols > 0 && source.item_block == nullptr) {
    return Status::InvalidArgument("item block pointer missing");
  }
  if (g.item_tail_dim > 0 && source.item_tail == nullptr) {
    return Status::InvalidArgument("item tail pointer missing");
  }
  return Status::OK();
}

// Per-level cluster count implied by the chains: max id + 1. Negative
// ids are a malformed store, never a tolerable input.
Result<int32_t> ChainClusterCount(const int32_t* chain, int32_t num_items,
                                  int32_t level) {
  int32_t max_id = -1;
  for (int32_t i = 0; i < num_items; ++i) {
    if (chain[i] < 0) {
      return Status::InvalidArgument(StrFormat(
          "negative cluster id %d in level-%d chain", chain[i], level));
    }
    max_id = std::max(max_id, chain[i]);
  }
  return max_id + 1;
}

// Parent (level `level` cluster) of every level `level - 1` cluster,
// derived from the composed chains; -1 for empty lower clusters. Every
// member item of a lower cluster must agree on the parent — the chains
// were composed from per-level assignments, so disagreement means the
// store is corrupt.
Result<std::vector<int32_t>> ParentsFromChains(
    const int32_t* prev_chain, const int32_t* chain, int32_t num_items,
    int32_t prev_clusters, int32_t level) {
  std::vector<int32_t> parent(static_cast<size_t>(prev_clusters), -1);
  for (int32_t i = 0; i < num_items; ++i) {
    const int32_t child = prev_chain[i];
    if (child >= prev_clusters) {
      return Status::InvalidArgument("chain id out of range");
    }
    int32_t& slot = parent[static_cast<size_t>(child)];
    if (slot == -1) {
      slot = chain[i];
    } else if (slot != chain[i]) {
      return Status::InvalidArgument(StrFormat(
          "level-%d chains are not a partition hierarchy (cluster %d has "
          "two parents)",
          level, child));
    }
  }
  return parent;
}

}  // namespace

Result<ClusterTreeIndex> ClusterTreeIndex::Build(const Source& source) {
  HIGNN_RETURN_IF_ERROR(ValidateSource(source));
  ClusterTreeIndex index;
  index.num_items_ = source.num_items;
  index.geometry_ = source.geometry;
  // Without item hierarchical blocks there is nothing to route on (the
  // HUP-only ablation): the index stays empty and the engine serves
  // every beam through the exact linear scan.
  if (source.geometry.item_block_cols <= 0) return index;

  const int32_t n = source.num_items;
  const size_t block_cols = static_cast<size_t>(source.geometry.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(source.geometry.item_tail_dim);

  int32_t prev_clusters = 0;
  for (int32_t l = 1; l <= source.chain_levels; ++l) {
    const int32_t* chain =
        source.right_chain + static_cast<size_t>(l - 1) * static_cast<size_t>(n);
    HIGNN_ASSIGN_OR_RETURN(const int32_t num_clusters,
                           ChainClusterCount(chain, n, l));
    ClusterTreeLevel level;
    level.num_clusters = num_clusters;

    // Centroids: double-precision accumulation in ascending item order,
    // rounded to float once — the fixed order makes every build from the
    // same arrays byte-identical.
    std::vector<double> block_sum(static_cast<size_t>(num_clusters) *
                                  block_cols);
    std::vector<double> tail_sum(static_cast<size_t>(num_clusters) *
                                 tail_dim);
    std::vector<int64_t> counts(static_cast<size_t>(num_clusters), 0);
    for (int32_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(chain[i]);
      ++counts[c];
      const float* block = source.item_block + static_cast<size_t>(i) * block_cols;
      double* bsum = block_sum.data() + c * block_cols;
      for (size_t j = 0; j < block_cols; ++j) {
        bsum[j] += static_cast<double>(block[j]);
      }
      if (tail_dim > 0) {
        const float* tail = source.item_tail + static_cast<size_t>(i) * tail_dim;
        double* tsum = tail_sum.data() + c * tail_dim;
        for (size_t j = 0; j < tail_dim; ++j) {
          tsum[j] += static_cast<double>(tail[j]);
        }
      }
    }
    level.owned_block.resize(block_sum.size());
    level.owned_tail.resize(tail_sum.size());
    for (size_t c = 0; c < static_cast<size_t>(num_clusters); ++c) {
      const double inv =
          counts[c] > 0 ? 1.0 / static_cast<double>(counts[c]) : 0.0;
      for (size_t j = 0; j < block_cols; ++j) {
        level.owned_block[c * block_cols + j] =
            static_cast<float>(block_sum[c * block_cols + j] * inv);
      }
      for (size_t j = 0; j < tail_dim; ++j) {
        level.owned_tail[c * tail_dim + j] =
            static_cast<float>(tail_sum[c * tail_dim + j] * inv);
      }
    }

    // Child CSR: level 1 children are items, higher levels the previous
    // level's clusters. Counting sort over ascending child id gives the
    // fixed (ascending) in-cluster order the determinism contract pins.
    std::vector<int32_t> offsets(static_cast<size_t>(num_clusters) + 1, 0);
    std::vector<int32_t> ids;
    if (l == 1) {
      for (int32_t i = 0; i < n; ++i) ++offsets[static_cast<size_t>(chain[i]) + 1];
      for (size_t c = 1; c < offsets.size(); ++c) offsets[c] += offsets[c - 1];
      ids.resize(static_cast<size_t>(n));
      std::vector<int32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (int32_t i = 0; i < n; ++i) {
        ids[static_cast<size_t>(cursor[static_cast<size_t>(chain[i])]++)] = i;
      }
    } else {
      const int32_t* prev_chain =
          source.right_chain +
          static_cast<size_t>(l - 2) * static_cast<size_t>(n);
      HIGNN_ASSIGN_OR_RETURN(
          const std::vector<int32_t> parent,
          ParentsFromChains(prev_chain, chain, n, prev_clusters, l));
      for (int32_t c = 0; c < prev_clusters; ++c) {
        if (parent[static_cast<size_t>(c)] >= 0) {
          ++offsets[static_cast<size_t>(parent[static_cast<size_t>(c)]) + 1];
        }
      }
      for (size_t c = 1; c < offsets.size(); ++c) offsets[c] += offsets[c - 1];
      ids.resize(static_cast<size_t>(offsets.back()));
      std::vector<int32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (int32_t c = 0; c < prev_clusters; ++c) {
        const int32_t p = parent[static_cast<size_t>(c)];
        if (p >= 0) {
          ids[static_cast<size_t>(cursor[static_cast<size_t>(p)]++)] = c;
        }
      }
    }
    level.num_children = static_cast<int32_t>(ids.size());
    level.owned_offsets = std::move(offsets);
    level.owned_ids = std::move(ids);
    level.centroid_block = level.owned_block.data();
    level.centroid_tail = level.owned_tail.data();
    level.child_offsets = level.owned_offsets.data();
    level.child_ids = level.owned_ids.data();
    prev_clusters = num_clusters;
    index.levels_.push_back(std::move(level));
  }
  return index;
}

void ClusterTreeIndex::WriteSections(BinaryWriter& writer) const {
  writer.WriteI32(num_levels());
  for (const ClusterTreeLevel& level : levels_) {
    writer.WriteI32(level.num_clusters);
    writer.WriteI32(level.num_children);
  }
  writer.NextSection();
  const size_t block_cols = static_cast<size_t>(geometry_.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(geometry_.item_tail_dim);
  for (const ClusterTreeLevel& level : levels_) {
    const size_t clusters = static_cast<size_t>(level.num_clusters);
    writer.AlignTo(kRowAlignment);
    writer.WriteRawFloats(level.centroid_block, clusters * block_cols);
    writer.AlignTo(kRowAlignment);
    writer.WriteRawFloats(level.centroid_tail, clusters * tail_dim);
    writer.AlignTo(kRowAlignment);
    writer.WriteRawI32s(level.child_offsets, clusters + 1);
    writer.AlignTo(kRowAlignment);
    writer.WriteRawI32s(level.child_ids,
                        static_cast<size_t>(level.num_children));
    writer.NextSection();
  }
}

Result<ClusterTreeIndex> ClusterTreeIndex::ReadSections(
    BinaryReader& reader, const Source& source) {
  if (Status status = ValidateSource(source); !status.ok()) {
    return Status::IOError(status.message());
  }
  ClusterTreeIndex index;
  index.num_items_ = source.num_items;
  index.geometry_ = source.geometry;

  HIGNN_ASSIGN_OR_RETURN(const int32_t stored_levels, reader.ReadI32());
  const int32_t expected_levels =
      source.geometry.item_block_cols > 0 ? source.chain_levels : 0;
  if (stored_levels != expected_levels) {
    return Status::IOError(
        StrFormat("index stores %d levels, chains imply %d", stored_levels,
                  expected_levels));
  }
  std::vector<int32_t> shape_clusters;
  std::vector<int32_t> shape_children;
  for (int32_t l = 0; l < stored_levels; ++l) {
    HIGNN_ASSIGN_OR_RETURN(const int32_t clusters, reader.ReadI32());
    HIGNN_ASSIGN_OR_RETURN(const int32_t children, reader.ReadI32());
    if (clusters <= 0 || children < 0) {
      return Status::IOError("index level with non-positive shape");
    }
    shape_clusters.push_back(clusters);
    shape_children.push_back(children);
  }

  const int32_t n = source.num_items;
  const size_t block_cols = static_cast<size_t>(source.geometry.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(source.geometry.item_tail_dim);
  int32_t prev_clusters = 0;
  for (int32_t l = 1; l <= stored_levels; ++l) {
    const int32_t* chain =
        source.right_chain + static_cast<size_t>(l - 1) * static_cast<size_t>(n);
    Result<int32_t> implied = ChainClusterCount(chain, n, l);
    if (!implied.ok()) return Status::IOError(implied.status().message());
    ClusterTreeLevel level;
    level.num_clusters = shape_clusters[static_cast<size_t>(l - 1)];
    level.num_children = shape_children[static_cast<size_t>(l - 1)];
    if (level.num_clusters != implied.value()) {
      return Status::IOError(
          StrFormat("index level %d stores %d clusters, chains imply %d", l,
                    level.num_clusters, implied.value()));
    }
    const size_t clusters = static_cast<size_t>(level.num_clusters);
    HIGNN_RETURN_IF_ERROR(reader.AlignTo(kRowAlignment));
    HIGNN_ASSIGN_OR_RETURN(level.centroid_block,
                           reader.BorrowFloats(clusters * block_cols));
    HIGNN_RETURN_IF_ERROR(reader.AlignTo(kRowAlignment));
    HIGNN_ASSIGN_OR_RETURN(level.centroid_tail,
                           reader.BorrowFloats(clusters * tail_dim));
    HIGNN_RETURN_IF_ERROR(reader.AlignTo(kRowAlignment));
    HIGNN_ASSIGN_OR_RETURN(level.child_offsets,
                           reader.BorrowI32s(clusters + 1));
    HIGNN_RETURN_IF_ERROR(reader.AlignTo(kRowAlignment));
    HIGNN_ASSIGN_OR_RETURN(
        level.child_ids,
        reader.BorrowI32s(static_cast<size_t>(level.num_children)));

    // Structural validation: the CSR must be exactly the one the chains
    // imply — offsets monotone, children ascending, each child exactly
    // once, and every child's chain entry pointing back at its parent.
    if (level.child_offsets[0] != 0 ||
        level.child_offsets[clusters] != level.num_children) {
      return Status::IOError("index child offsets do not span the level");
    }
    const int32_t child_domain = l == 1 ? n : prev_clusters;
    std::vector<bool> seen(static_cast<size_t>(child_domain), false);
    std::vector<int32_t> parent_of;
    if (l > 1) {
      const int32_t* prev_chain =
          source.right_chain +
          static_cast<size_t>(l - 2) * static_cast<size_t>(n);
      Result<std::vector<int32_t>> parents =
          ParentsFromChains(prev_chain, chain, n, prev_clusters, l);
      if (!parents.ok()) return Status::IOError(parents.status().message());
      parent_of = std::move(parents).value();
    }
    for (size_t c = 0; c < clusters; ++c) {
      const int32_t begin = level.child_offsets[c];
      const int32_t end = level.child_offsets[c + 1];
      if (begin > end) {
        return Status::IOError("index child offsets are not monotone");
      }
      for (int32_t p = begin; p < end; ++p) {
        const int32_t child = level.child_ids[p];
        if (child < 0 || child >= child_domain ||
            seen[static_cast<size_t>(child)]) {
          return Status::IOError("index child list is not a partition");
        }
        if (p > begin && level.child_ids[p - 1] >= child) {
          return Status::IOError("index child list is not ascending");
        }
        seen[static_cast<size_t>(child)] = true;
        const int32_t expected_parent =
            l == 1 ? chain[child] : parent_of[static_cast<size_t>(child)];
        if (expected_parent != static_cast<int32_t>(c)) {
          return Status::IOError(
              "index child list disagrees with the cluster chains");
        }
      }
    }
    const int64_t expected_children =
        l == 1 ? static_cast<int64_t>(n)
               : static_cast<int64_t>(std::count_if(
                     parent_of.begin(), parent_of.end(),
                     [](int32_t p) { return p >= 0; }));
    if (static_cast<int64_t>(level.num_children) != expected_children) {
      return Status::IOError("index child count disagrees with the chains");
    }
    prev_clusters = level.num_clusters;
    index.levels_.push_back(std::move(level));
  }
  return index;
}

const ClusterTreeLevel& ClusterTreeIndex::level(int32_t level) const {
  HIGNN_CHECK_GE(level, 1);
  HIGNN_CHECK_LE(level, num_levels());
  return levels_[static_cast<size_t>(level - 1)];
}

Result<std::vector<int32_t>> ClusterTreeIndex::SelectLeaves(
    const float* user_block, const float* user_tail, int32_t beam,
    const RowScorer& scorer, SearchStats* stats) const {
  if (beam < 1) return Status::InvalidArgument("beam must be >= 1");
  if (levels_.empty()) {
    return Status::FailedPrecondition("index has no levels");
  }
  SearchStats local;
  const size_t block_cols = static_cast<size_t>(geometry_.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(geometry_.item_tail_dim);
  Matrix rows;  // every float is rewritten, so a reused matrix needs no reset
  std::vector<ItemSource> items;
  std::vector<int32_t> frontier(
      static_cast<size_t>(levels_.back().num_clusters));
  std::iota(frontier.begin(), frontier.end(), 0);
  for (int32_t l = num_levels(); l >= 1; --l) {
    const ClusterTreeLevel& lev = level(l);
    if (static_cast<int32_t>(frontier.size()) > beam) {
      items.clear();
      for (const int32_t cluster : frontier) {
        HIGNN_CHECK_GE(cluster, 0);
        HIGNN_CHECK_LT(cluster, lev.num_clusters);
        const size_t c = static_cast<size_t>(cluster);
        items.push_back({lev.centroid_block + c * block_cols,
                         lev.centroid_tail + c * tail_dim});
      }
      if (rows.rows() != frontier.size()) {
        rows = Matrix(frontier.size(),
                      static_cast<size_t>(geometry_.feature_dim));
      }
      AssembleFeatureRows(geometry_, user_block, user_tail, items.data(),
                          items.size(), rows.data());
      HIGNN_ASSIGN_OR_RETURN(const std::vector<float> scores, scorer(rows));
      if (scores.size() != frontier.size()) {
        return Status::Internal("row scorer returned a mismatched count");
      }
      local.nodes_scored += static_cast<int64_t>(frontier.size());
      // TopKByScore is the one total order every ranking path shares
      // (score descending, ties ascending id); re-sorting the survivors
      // ascending fixes the traversal order below.
      const std::vector<Recommendation> kept =
          TopKByScore(frontier, scores, beam);
      frontier.clear();
      for (const Recommendation& rec : kept) frontier.push_back(rec.item);
      std::sort(frontier.begin(), frontier.end());
    }
    std::vector<int32_t> next;
    for (const int32_t c : frontier) {
      const int32_t begin = lev.child_offsets[c];
      const int32_t end = lev.child_offsets[c + 1];
      next.insert(next.end(), lev.child_ids + begin, lev.child_ids + end);
    }
    frontier = std::move(next);
    ++local.levels_descended;
  }
  std::sort(frontier.begin(), frontier.end());
  local.leaves_selected = static_cast<int64_t>(frontier.size());
  if (stats != nullptr) *stats = local;
  return frontier;
}

}  // namespace hignn
