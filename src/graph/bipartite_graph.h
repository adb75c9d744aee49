#ifndef HIGNN_GRAPH_BIPARTITE_GRAPH_H_
#define HIGNN_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace hignn {

/// \brief One endpoint pairing of a weighted bipartite edge.
struct WeightedEdge {
  int32_t u;      ///< left-side vertex (user / query)
  int32_t i;      ///< right-side vertex (item)
  float weight;   ///< connection strength S(e) (e.g. click count)
};

/// \brief Immutable weighted bipartite graph G = (U, I, E, S) stored as a
/// dual CSR: one adjacency indexed by left vertices, one by right vertices.
///
/// This is the quadruple of Section III-A. Left vertices model users (or
/// queries, Section V); right vertices model items. There are no edges
/// inside a side. Construction goes through BipartiteGraphBuilder, which
/// deduplicates parallel edges by summing their weights.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  int32_t num_left() const { return num_left_; }
  int32_t num_right() const { return num_right_; }
  int64_t num_edges() const { return static_cast<int64_t>(left_adj_.size()); }

  /// \brief Sum of all edge weights.
  double TotalWeight() const;

  /// \brief Neighbors (right ids) of left vertex u with parallel weights.
  struct NeighborSpan {
    const int32_t* ids;
    const float* weights;
    size_t size;

    const int32_t* begin() const { return ids; }
    const int32_t* end() const { return ids + size; }
  };

  NeighborSpan LeftNeighbors(int32_t u) const;
  NeighborSpan RightNeighbors(int32_t i) const;

  int32_t LeftDegree(int32_t u) const;
  int32_t RightDegree(int32_t i) const;

  /// \brief Index of u's first edge in left-major order (EdgeAt's
  /// index); u == num_left() gives num_edges(). Left vertices [lo, hi)
  /// own edges [LeftEdgeBegin(lo), LeftEdgeBegin(hi)).
  int64_t LeftEdgeBegin(int32_t u) const;

  /// \brief Random access to the k-th edge in left-major order
  /// (O(log |U|) binary search on the CSR offsets). Enables uniform edge
  /// sampling without materializing the edge list.
  WeightedEdge EdgeAt(int64_t index) const;

  /// \brief Weighted degree (sum of incident weights).
  double LeftWeightedDegree(int32_t u) const;
  double RightWeightedDegree(int32_t i) const;

  /// \brief Internal consistency check (CSR offsets monotone, ids in
  /// range, dual views agree on edge count). Used by tests and after
  /// coarsening.
  Status Validate() const;

 private:
  friend class BipartiteGraphBuilder;

  int32_t num_left_ = 0;
  int32_t num_right_ = 0;

  // CSR over left vertices.
  std::vector<int64_t> left_offsets_;  // size num_left_+1
  std::vector<int32_t> left_adj_;     // right ids
  std::vector<float> left_weights_;

  // CSR over right vertices.
  std::vector<int64_t> right_offsets_;  // size num_right_+1
  std::vector<int32_t> right_adj_;      // left ids
  std::vector<float> right_weights_;
};

/// \brief Vertex and edge counts of a bipartite graph, without its edges:
/// what a trained hierarchy level keeps of the graph it trained on.
/// Converts implicitly from a graph, so `shape = graph;` records one.
struct GraphShape {
  GraphShape() = default;
  GraphShape(const BipartiteGraph& graph)  // NOLINT
      : num_left(graph.num_left()),
        num_right(graph.num_right()),
        num_edges(graph.num_edges()) {}

  /// \brief Edge density |E| / (|U|*|I|), as reported in Tables I and V;
  /// 0 when a side is empty.
  double Density() const;

  friend bool operator==(const GraphShape&, const GraphShape&) = default;

  int32_t num_left = 0;
  int32_t num_right = 0;
  int64_t num_edges = 0;
};

/// \brief Accumulating builder: duplicate (u, i) edges sum their weights.
class BipartiteGraphBuilder {
 public:
  BipartiteGraphBuilder(int32_t num_left, int32_t num_right);

  /// \brief Adds (or accumulates onto) an edge. Returns InvalidArgument
  /// for out-of-range endpoints or non-positive weight.
  Status AddEdge(int32_t u, int32_t i, float weight = 1.0f);

  /// \brief Bulk variant of AddEdge.
  Status AddEdges(const std::vector<WeightedEdge>& edges);

  /// \brief Finalizes into the immutable dual-CSR form. The builder is
  /// left empty afterwards.
  BipartiteGraph Build();

  int64_t num_pending_edges() const {
    return static_cast<int64_t>(edges_.size());
  }

 private:
  int32_t num_left_;
  int32_t num_right_;
  std::vector<WeightedEdge> edges_;
};

}  // namespace hignn

#endif  // HIGNN_GRAPH_BIPARTITE_GRAPH_H_
