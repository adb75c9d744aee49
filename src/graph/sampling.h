#ifndef HIGNN_GRAPH_SAMPLING_H_
#define HIGNN_GRAPH_SAMPLING_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "nn/row_groups.h"
#include "util/rng.h"

namespace hignn {

/// \brief Which side of the bipartite graph a vertex id refers to.
enum class Side { kLeft, kRight };

/// \brief GraphSAGE-style fixed-fanout neighbor sampler.
///
/// Samples up to `fanout` neighbors per vertex *with replacement when the
/// degree exceeds the fanout would require it*, matching the GraphSAGE
/// formulation referenced by the paper: deterministic full neighborhoods
/// for low-degree vertices, uniform subsampling for hubs (K1/K2 in the
/// complexity analysis of Section III-D).
class NeighborSampler {
 public:
  /// \param weighted  if true, neighbors are drawn proportionally to edge
  ///   weight instead of uniformly (weighted-aggregator ablation).
  NeighborSampler(const BipartiteGraph& graph, bool weighted = false)
      : graph_(graph), weighted_(weighted) {}

  /// \brief Samples neighbor ids for `vertex` on `side`; the result lives
  /// on the opposite side. Degree <= fanout returns the full neighborhood.
  /// Isolated vertices return an empty vector.
  std::vector<int32_t> Sample(Side side, int32_t vertex, int32_t fanout,
                              Rng& rng) const;

  /// \brief Batch version as one flat CSR: group k holds what
  /// Sample(side, vertices[k], ...) would return on the same rng stream,
  /// and `weights` the sampled edges' weights.
  RowGroups SampleBatch(Side side, const std::vector<int32_t>& vertices,
                        int32_t fanout, Rng& rng) const;

  /// \brief SampleBatch into `out`, replacing its groups but keeping its
  /// capacity. It grows `out` geometrically, never to an exact size, so a
  /// caller that reuses `out` for batches of varying size stops
  /// allocating after its first few.
  void SampleBatch(Side side, const std::vector<int32_t>& vertices,
                   int32_t fanout, Rng& rng, RowGroups& out) const;

  const BipartiteGraph& graph() const { return graph_; }
  bool weighted() const { return weighted_; }

 private:
  // Appends vertex's sampled neighbor ids and edge weights to `out`.
  void AppendSample(Side side, int32_t vertex, int32_t fanout, Rng& rng,
                    RowGroups& out) const;

  const BipartiteGraph& graph_;
  bool weighted_;
};

/// \brief Negative edge sampler for the unsupervised losses (Eq. 5 / 12).
///
/// Draws vertices from a degree^0.75 unigram distribution (the word2vec
/// convention) so popular vertices appear as negatives proportionally more
/// often, and rejects accidental true edges.
class NegativeSampler {
 public:
  explicit NegativeSampler(const BipartiteGraph& graph);

  /// \brief Samples a right-side vertex that is (with high probability)
  /// not a neighbor of left vertex u. Falls back to any vertex after
  /// `max_tries` rejections (dense rows).
  int32_t SampleRightFor(int32_t u, Rng& rng, int max_tries = 16) const;

  /// \brief Symmetric: left-side negative for a right vertex i.
  int32_t SampleLeftFor(int32_t i, Rng& rng, int max_tries = 16) const;

  /// \brief True if (u, i) is an edge: a binary search of the shorter
  /// adjacency list, which BipartiteGraphBuilder::Build emits ascending.
  bool HasEdge(int32_t u, int32_t i) const;

 private:
  const BipartiteGraph& graph_;
  AliasSampler left_dist_;
  AliasSampler right_dist_;
};

}  // namespace hignn

#endif  // HIGNN_GRAPH_SAMPLING_H_
