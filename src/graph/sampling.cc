#include "graph/sampling.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace hignn {

std::vector<int32_t> NeighborSampler::Sample(Side side, int32_t vertex,
                                             int32_t fanout, Rng& rng) const {
  RowGroups one;
  AppendSample(side, vertex, fanout, rng, one);
  return std::move(one.ids);
}

RowGroups NeighborSampler::SampleBatch(Side side,
                                       const std::vector<int32_t>& vertices,
                                       int32_t fanout, Rng& rng) const {
  RowGroups out;
  out.offsets.reserve(vertices.size() + 1);
  out.ids.reserve(vertices.size() * static_cast<size_t>(fanout));
  out.weights.reserve(vertices.size() * static_cast<size_t>(fanout));
  SampleBatch(side, vertices, fanout, rng, out);
  return out;
}

void NeighborSampler::SampleBatch(Side side,
                                  const std::vector<int32_t>& vertices,
                                  int32_t fanout, Rng& rng,
                                  RowGroups& out) const {
  out.Clear();
  for (int32_t v : vertices) {
    AppendSample(side, v, fanout, rng, out);
    out.CloseGroup();
  }
}

void NeighborSampler::AppendSample(Side side, int32_t vertex, int32_t fanout,
                                   Rng& rng, RowGroups& out) const {
  HIGNN_CHECK_GT(fanout, 0);
  const auto span = side == Side::kLeft ? graph_.LeftNeighbors(vertex)
                                        : graph_.RightNeighbors(vertex);
  if (static_cast<int32_t>(span.size) <= fanout) {
    out.ids.insert(out.ids.end(), span.ids, span.ids + span.size);
    out.weights.insert(out.weights.end(), span.weights,
                       span.weights + span.size);
    return;
  }
  const auto take = [&](size_t pick) {
    out.ids.push_back(span.ids[pick]);
    out.weights.push_back(span.weights[pick]);
  };
  if (!weighted_) {
    for (int32_t k = 0; k < fanout; ++k) take(rng.UniformInt(span.size));
    return;
  }

  // Weighted draw via cumulative scan (degree-bounded; hubs are capped by
  // the fanout so this stays cheap).
  double total = 0.0;
  for (size_t k = 0; k < span.size; ++k) total += span.weights[k];
  for (int32_t k = 0; k < fanout; ++k) {
    double target = rng.Uniform() * total;
    size_t pick = span.size - 1;
    for (size_t j = 0; j < span.size; ++j) {
      target -= span.weights[j];
      if (target <= 0.0) {
        pick = j;
        break;
      }
    }
    take(pick);
  }
}

namespace {

std::vector<double> DegreePow(const BipartiteGraph& graph, Side side,
                              double power) {
  const int32_t n =
      side == Side::kLeft ? graph.num_left() : graph.num_right();
  std::vector<double> weights(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    const double deg = side == Side::kLeft
                           ? static_cast<double>(graph.LeftDegree(v))
                           : static_cast<double>(graph.RightDegree(v));
    // Smoothing (+1) keeps isolated vertices sampleable as negatives.
    weights[static_cast<size_t>(v)] = std::pow(deg + 1.0, power);
  }
  return weights;
}

}  // namespace

NegativeSampler::NegativeSampler(const BipartiteGraph& graph)
    : graph_(graph),
      left_dist_(DegreePow(graph, Side::kLeft, 0.75)),
      right_dist_(DegreePow(graph, Side::kRight, 0.75)) {}

bool NegativeSampler::HasEdge(int32_t u, int32_t i) const {
  // Probe the smaller adjacency list.
  const auto left = graph_.LeftNeighbors(u);
  const auto right = graph_.RightNeighbors(i);
  if (left.size <= right.size) {
    return std::binary_search(left.begin(), left.end(), i);
  }
  return std::binary_search(right.begin(), right.end(), u);
}

int32_t NegativeSampler::SampleRightFor(int32_t u, Rng& rng,
                                        int max_tries) const {
  HIGNN_CHECK_GT(graph_.num_right(), 0);
  for (int t = 0; t < max_tries; ++t) {
    const int32_t i = static_cast<int32_t>(right_dist_.Sample(rng));
    if (!HasEdge(u, i)) return i;
  }
  return static_cast<int32_t>(right_dist_.Sample(rng));
}

int32_t NegativeSampler::SampleLeftFor(int32_t i, Rng& rng,
                                       int max_tries) const {
  HIGNN_CHECK_GT(graph_.num_left(), 0);
  for (int t = 0; t < max_tries; ++t) {
    const int32_t u = static_cast<int32_t>(left_dist_.Sample(rng));
    if (!HasEdge(u, i)) return u;
  }
  return static_cast<int32_t>(left_dist_.Sample(rng));
}

}  // namespace hignn
