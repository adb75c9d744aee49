#ifndef HIGNN_GRAPH_COARSEN_H_
#define HIGNN_GRAPH_COARSEN_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace hignn {

/// \brief Output of one coarsening step F(C_u, C_i, G^{l-1}) (Sec. III-C).
struct CoarsenedGraph {
  BipartiteGraph graph;     ///< super-vertex bipartite graph
  Matrix left_features;     ///< X_{C_u}: mean embedding per left cluster
  Matrix right_features;    ///< X_{C_i}: mean embedding per right cluster
};

/// \brief Builds the coarsened user-item graph of Eq. 6.
///
/// Cluster (C_u, C_i) are connected iff the summed fine-edge weight
/// S(C_u, C_i) = sum_{(u,i) in E, u in C_u, i in C_i} S(u, i) is positive,
/// and that sum becomes the coarse edge weight. Cluster features are the
/// mean embedding of members (paper Sec. III-C); empty clusters keep a
/// zero feature row and become isolated vertices. The result is a pure
/// function of the arguments, bit for bit at any thread count.
///
/// \param graph            the finer-level graph
/// \param left_embeddings  (num_left x d) embeddings used for features
/// \param right_embeddings (num_right x d)
/// \param left_assignment  per-left-vertex cluster id in
///                         [0, num_left_clusters)
/// \param right_assignment per-right-vertex cluster id in
///                         [0, num_right_clusters)
Result<CoarsenedGraph> CoarsenBipartiteGraph(
    const BipartiteGraph& graph, const Matrix& left_embeddings,
    const Matrix& right_embeddings,
    const std::vector<int32_t>& left_assignment, int32_t num_left_clusters,
    const std::vector<int32_t>& right_assignment, int32_t num_right_clusters);

}  // namespace hignn

#endif  // HIGNN_GRAPH_COARSEN_H_
