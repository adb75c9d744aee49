#ifndef HIGNN_NN_ROW_GROUPS_H_
#define HIGNN_NN_ROW_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hignn {

/// \brief Groups of row indices as one flat CSR: group g is
/// ids[offsets[g] .. offsets[g + 1]), and `weights` is either empty or
/// parallel to `ids`.
///
/// NeighborSampler::SampleBatch fills one per batch (group k = the sampled
/// neighbors of vertex k, weights = their edge weights), and the tape's
/// grouped aggregations (Tape::GroupMeanRows and friends) read it in
/// place: a reused one costs no allocation per batch.
struct RowGroups {
  std::vector<size_t> offsets = {0};
  std::vector<int32_t> ids;
  std::vector<float> weights;

  /// \brief Number of groups.
  size_t size() const { return offsets.size() - 1; }

  size_t GroupSize(size_t g) const { return offsets[g + 1] - offsets[g]; }

  /// \brief Ends the current group: it holds every id appended since the
  /// previous call.
  void CloseGroup() { offsets.push_back(ids.size()); }

  /// \brief Removes every group; the buffers keep their capacity.
  void Clear() {
    offsets.assign(1, 0);
    ids.clear();
    weights.clear();
  }
};

}  // namespace hignn

#endif  // HIGNN_NN_ROW_GROUPS_H_
