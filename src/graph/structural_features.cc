#include "graph/structural_features.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hignn {

Matrix StructuralFeatures(const BipartiteGraph& graph, bool left) {
  const int32_t n = left ? graph.num_left() : graph.num_right();
  Matrix features(static_cast<size_t>(n), 3);
  for (int32_t v = 0; v < n; ++v) {
    const double degree = left ? graph.LeftDegree(v) : graph.RightDegree(v);
    const double weighted =
        left ? graph.LeftWeightedDegree(v) : graph.RightWeightedDegree(v);
    float* row = features.row(static_cast<size_t>(v));
    row[0] = static_cast<float>(std::log1p(degree));
    row[1] = static_cast<float>(std::log1p(weighted));
    row[2] = 1.0f;
  }
  return features;
}

}  // namespace hignn
