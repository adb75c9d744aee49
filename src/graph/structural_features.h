#ifndef HIGNN_GRAPH_STRUCTURAL_FEATURES_H_
#define HIGNN_GRAPH_STRUCTURAL_FEATURES_H_

#include "graph/bipartite_graph.h"
#include "nn/matrix.h"

namespace hignn {

/// \brief Structural fallback input features for one side of `graph`,
/// for graphs that come without vertex attributes: one row per vertex,
/// [log(1 + degree), log(1 + weighted degree), 1].
Matrix StructuralFeatures(const BipartiteGraph& graph, bool left);

}  // namespace hignn

#endif  // HIGNN_GRAPH_STRUCTURAL_FEATURES_H_
