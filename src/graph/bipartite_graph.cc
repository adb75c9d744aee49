#include "graph/bipartite_graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

double GraphShape::Density() const {
  if (num_left == 0 || num_right == 0) return 0.0;
  return static_cast<double>(num_edges) /
         (static_cast<double>(num_left) * static_cast<double>(num_right));
}

double BipartiteGraph::TotalWeight() const {
  double total = 0.0;
  for (float w : left_weights_) total += w;
  return total;
}

BipartiteGraph::NeighborSpan BipartiteGraph::LeftNeighbors(int32_t u) const {
  HIGNN_CHECK_GE(u, 0);
  HIGNN_CHECK_LT(u, num_left_);
  const int64_t begin = left_offsets_[u];
  const int64_t end = left_offsets_[u + 1];
  return NeighborSpan{left_adj_.data() + begin, left_weights_.data() + begin,
                      static_cast<size_t>(end - begin)};
}

BipartiteGraph::NeighborSpan BipartiteGraph::RightNeighbors(int32_t i) const {
  HIGNN_CHECK_GE(i, 0);
  HIGNN_CHECK_LT(i, num_right_);
  const int64_t begin = right_offsets_[i];
  const int64_t end = right_offsets_[i + 1];
  return NeighborSpan{right_adj_.data() + begin, right_weights_.data() + begin,
                      static_cast<size_t>(end - begin)};
}

int32_t BipartiteGraph::LeftDegree(int32_t u) const {
  return static_cast<int32_t>(LeftNeighbors(u).size);
}

int32_t BipartiteGraph::RightDegree(int32_t i) const {
  return static_cast<int32_t>(RightNeighbors(i).size);
}

int64_t BipartiteGraph::LeftEdgeBegin(int32_t u) const {
  HIGNN_CHECK_GE(u, 0);
  HIGNN_CHECK_LE(u, num_left_);
  return left_offsets_.empty() ? 0 : left_offsets_[static_cast<size_t>(u)];
}

WeightedEdge BipartiteGraph::EdgeAt(int64_t index) const {
  HIGNN_CHECK_GE(index, 0);
  HIGNN_CHECK_LT(index, num_edges());
  // First left vertex whose range ends beyond `index`.
  const auto it = std::upper_bound(left_offsets_.begin(), left_offsets_.end(),
                                   index);
  const int32_t u =
      static_cast<int32_t>(std::distance(left_offsets_.begin(), it)) - 1;
  return WeightedEdge{u, left_adj_[static_cast<size_t>(index)],
                      left_weights_[static_cast<size_t>(index)]};
}

double BipartiteGraph::LeftWeightedDegree(int32_t u) const {
  const auto span = LeftNeighbors(u);
  double total = 0.0;
  for (size_t k = 0; k < span.size; ++k) total += span.weights[k];
  return total;
}

double BipartiteGraph::RightWeightedDegree(int32_t i) const {
  const auto span = RightNeighbors(i);
  double total = 0.0;
  for (size_t k = 0; k < span.size; ++k) total += span.weights[k];
  return total;
}

Status BipartiteGraph::Validate() const {
  if (static_cast<int32_t>(left_offsets_.size()) != num_left_ + 1 ||
      static_cast<int32_t>(right_offsets_.size()) != num_right_ + 1) {
    return Status::Internal("offset array size mismatch");
  }
  if (left_adj_.size() != left_weights_.size() ||
      right_adj_.size() != right_weights_.size()) {
    return Status::Internal("adjacency/weight size mismatch");
  }
  if (left_adj_.size() != right_adj_.size()) {
    return Status::Internal("dual CSR views disagree on edge count");
  }
  for (size_t k = 0; k + 1 < left_offsets_.size(); ++k) {
    if (left_offsets_[k] > left_offsets_[k + 1]) {
      return Status::Internal("left offsets not monotone");
    }
  }
  for (size_t k = 0; k + 1 < right_offsets_.size(); ++k) {
    if (right_offsets_[k] > right_offsets_[k + 1]) {
      return Status::Internal("right offsets not monotone");
    }
  }
  for (int32_t id : left_adj_) {
    if (id < 0 || id >= num_right_) {
      return Status::Internal("left adjacency id out of range");
    }
  }
  for (int32_t id : right_adj_) {
    if (id < 0 || id >= num_left_) {
      return Status::Internal("right adjacency id out of range");
    }
  }
  for (float w : left_weights_) {
    if (!(w > 0.0f)) return Status::Internal("non-positive edge weight");
  }
  return Status::OK();
}

BipartiteGraphBuilder::BipartiteGraphBuilder(int32_t num_left,
                                             int32_t num_right)
    : num_left_(num_left), num_right_(num_right) {
  HIGNN_CHECK_GE(num_left, 0);
  HIGNN_CHECK_GE(num_right, 0);
}

Status BipartiteGraphBuilder::AddEdge(int32_t u, int32_t i, float weight) {
  if (u < 0 || u >= num_left_) {
    return Status::InvalidArgument(
        StrFormat("left id %d out of range [0, %d)", u, num_left_));
  }
  if (i < 0 || i >= num_right_) {
    return Status::InvalidArgument(
        StrFormat("right id %d out of range [0, %d)", i, num_right_));
  }
  if (!(weight > 0.0f)) {
    return Status::InvalidArgument("edge weight must be positive");
  }
  edges_.push_back(WeightedEdge{u, i, weight});
  return Status::OK();
}

Status BipartiteGraphBuilder::AddEdges(const std::vector<WeightedEdge>& edges) {
  for (const auto& e : edges) HIGNN_RETURN_IF_ERROR(AddEdge(e.u, e.i, e.weight));
  return Status::OK();
}

BipartiteGraph BipartiteGraphBuilder::Build() {
  // Deduplicate parallel edges by summing weights: sort by (u, i) and merge.
  std::sort(edges_.begin(), edges_.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.u != b.u ? a.u < b.u : a.i < b.i;
            });
  std::vector<WeightedEdge> merged;
  merged.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().i == e.i) {
      merged.back().weight += e.weight;
    } else {
      merged.push_back(e);
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  BipartiteGraph g;
  g.num_left_ = num_left_;
  g.num_right_ = num_right_;

  // Left CSR (edges already in left-major order).
  g.left_offsets_.assign(static_cast<size_t>(num_left_) + 1, 0);
  for (const auto& e : merged) ++g.left_offsets_[e.u + 1];
  for (int32_t u = 0; u < num_left_; ++u) {
    g.left_offsets_[u + 1] += g.left_offsets_[u];
  }
  g.left_adj_.resize(merged.size());
  g.left_weights_.resize(merged.size());
  {
    std::vector<int64_t> cursor(g.left_offsets_.begin(),
                                g.left_offsets_.end() - 1);
    for (const auto& e : merged) {
      const int64_t pos = cursor[e.u]++;
      g.left_adj_[pos] = e.i;
      g.left_weights_[pos] = e.weight;
    }
  }

  // Right CSR.
  g.right_offsets_.assign(static_cast<size_t>(num_right_) + 1, 0);
  for (const auto& e : merged) ++g.right_offsets_[e.i + 1];
  for (int32_t i = 0; i < num_right_; ++i) {
    g.right_offsets_[i + 1] += g.right_offsets_[i];
  }
  g.right_adj_.resize(merged.size());
  g.right_weights_.resize(merged.size());
  {
    std::vector<int64_t> cursor(g.right_offsets_.begin(),
                                g.right_offsets_.end() - 1);
    for (const auto& e : merged) {
      const int64_t pos = cursor[e.i]++;
      g.right_adj_[pos] = e.u;
      g.right_weights_[pos] = e.weight;
    }
  }

  return g;
}

}  // namespace hignn
