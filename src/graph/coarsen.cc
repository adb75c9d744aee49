#include "graph/coarsen.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Edge scans below this size stay inline; dispatch costs more than the
// summation.
constexpr int64_t kParallelEdgeCutoff = int64_t{1} << 14;

// Chunk count for the parallel edge-weight reduction. Fixed (derived from
// the workload, never the thread count) so the chunk-order merge — and
// therefore the coarse graph — is identical at any num_threads setting.
constexpr size_t kEdgeReduceChunks = 32;

// Mean embedding per cluster; empty clusters stay zero. Parallelized by
// cluster ownership: each chunk owns a contiguous cluster range and
// accumulates its clusters' rows in ascending vertex order — the same
// per-cluster order as the sequential scan, so means are bitwise identical
// at any thread count.
Matrix ClusterMeans(const Matrix& embeddings,
                    const std::vector<int32_t>& assignment,
                    int32_t num_clusters) {
  Matrix means(static_cast<size_t>(num_clusters), embeddings.cols());
  std::vector<int64_t> counts(static_cast<size_t>(num_clusters), 0);
  const size_t d = embeddings.cols();
  auto accumulate_clusters = [&](size_t clo, size_t chi) {
    for (size_t v = 0; v < assignment.size(); ++v) {
      const auto c = static_cast<size_t>(assignment[v]);
      if (c < clo || c >= chi) continue;
      float* dst = means.row(c);
      const float* src = embeddings.row(v);
      for (size_t col = 0; col < d; ++col) dst[col] += src[col];
      ++counts[c];
    }
  };
  if (assignment.size() * d >= size_t{1} << 16 &&
      GlobalThreadPool().num_threads() > 1) {
    GlobalThreadPool().ParallelFor(0, static_cast<size_t>(num_clusters),
                                   accumulate_clusters);
  } else {
    accumulate_clusters(0, static_cast<size_t>(num_clusters));
  }
  for (int32_t c = 0; c < num_clusters; ++c) {
    if (counts[static_cast<size_t>(c)] == 0) continue;
    const float inv = 1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
    float* dst = means.row(static_cast<size_t>(c));
    for (size_t col = 0; col < means.cols(); ++col) dst[col] *= inv;
  }
  return means;
}

Status ValidateAssignment(const std::vector<int32_t>& assignment,
                          size_t expected_size, int32_t num_clusters,
                          const char* side) {
  if (assignment.size() != expected_size) {
    return Status::InvalidArgument(
        StrFormat("%s assignment size %zu != vertex count %zu", side,
                  assignment.size(), expected_size));
  }
  for (int32_t c : assignment) {
    if (c < 0 || c >= num_clusters) {
      return Status::InvalidArgument(
          StrFormat("%s assignment id %d out of range [0, %d)", side, c,
                    num_clusters));
    }
  }
  return Status::OK();
}

}  // namespace

Result<CoarsenedGraph> CoarsenBipartiteGraph(
    const BipartiteGraph& graph, const Matrix& left_embeddings,
    const Matrix& right_embeddings,
    const std::vector<int32_t>& left_assignment, int32_t num_left_clusters,
    const std::vector<int32_t>& right_assignment, int32_t num_right_clusters) {
  if (num_left_clusters <= 0 || num_right_clusters <= 0) {
    return Status::InvalidArgument("cluster counts must be positive");
  }
  HIGNN_RETURN_IF_ERROR(ValidateAssignment(
      left_assignment, static_cast<size_t>(graph.num_left()),
      num_left_clusters, "left"));
  HIGNN_RETURN_IF_ERROR(ValidateAssignment(
      right_assignment, static_cast<size_t>(graph.num_right()),
      num_right_clusters, "right"));
  if (left_embeddings.rows() != static_cast<size_t>(graph.num_left()) ||
      right_embeddings.rows() != static_cast<size_t>(graph.num_right())) {
    return Status::InvalidArgument("embedding row count != vertex count");
  }
  HIGNN_SPAN("coarsen",
             {{"left", graph.num_left()}, {"right", graph.num_right()}});

  CoarsenedGraph out;
  out.left_features = ClusterMeans(left_embeddings, left_assignment,
                                   num_left_clusters);
  out.right_features = ClusterMeans(right_embeddings, right_assignment,
                                    num_right_clusters);

  // Accumulate S(C_u, C_i) = sum of fine weights (Eq. 6). Left vertices
  // are split into a fixed number of chunks. Each chunk tags its edges
  // with their packed cluster-pair key, sorts them by (key, position) and
  // sums each key's weights in edge order; the per-chunk sums are then
  // merged key by key in ascending chunk order. So both the weights and
  // the coarse edge order are identical at any thread count. The buffers
  // are allocated here, on the calling thread: memory a chunk allocates
  // comes from its worker's malloc arena, which keeps freed pages
  // resident, so per-chunk scratch raised peak RSS Fit after Fit.
  struct KeyedEdge {
    int64_t key;
    uint32_t pos;  // edge index within the chunk
    float weight;
  };
  const size_t num_left = static_cast<size_t>(graph.num_left());
  const size_t num_edges = static_cast<size_t>(graph.num_edges());
  const size_t chunks =
      graph.num_edges() >= kParallelEdgeCutoff
          ? std::min(num_left, kEdgeReduceChunks)
          : 1;
  // A chunk's slice of `keyed` is compacted to one (key, sum) per key:
  // keyed[j].key with sums[j], for j in [chunk_begin, chunk_end).
  std::vector<KeyedEdge> keyed(num_edges);
  std::vector<double> sums(num_edges);
  std::vector<size_t> chunk_begin(chunks, 0);
  std::vector<size_t> chunk_end(chunks, 0);
  GlobalThreadPool().ParallelForChunks(
      0, num_left, chunks, [&](size_t chunk, size_t lo, size_t hi) {
        const auto begin = static_cast<size_t>(
            graph.LeftEdgeBegin(static_cast<int32_t>(lo)));
        const auto end = static_cast<size_t>(
            graph.LeftEdgeBegin(static_cast<int32_t>(hi)));
        HIGNN_CHECK_LE(end - begin, size_t{UINT32_MAX});
        for (size_t u = lo, e = begin; u < hi; ++u) {
          const int32_t cu = left_assignment[u];
          const auto span = graph.LeftNeighbors(static_cast<int32_t>(u));
          for (size_t k = 0; k < span.size; ++k, ++e) {
            const int32_t ci =
                right_assignment[static_cast<size_t>(span.ids[k])];
            keyed[e] = {static_cast<int64_t>(cu) * num_right_clusters + ci,
                        static_cast<uint32_t>(e - begin), span.weights[k]};
          }
        }
        std::sort(keyed.begin() + static_cast<ptrdiff_t>(begin),
                  keyed.begin() + static_cast<ptrdiff_t>(end),
                  [](const KeyedEdge& a, const KeyedEdge& b) {
                    return a.key != b.key ? a.key < b.key : a.pos < b.pos;
                  });
        size_t out_pos = begin;
        for (size_t e = begin; e < end; ++out_pos) {
          const int64_t key = keyed[e].key;
          double weight = 0.0;
          for (; e < end && keyed[e].key == key; ++e) {
            weight += keyed[e].weight;
          }
          keyed[out_pos].key = key;
          sums[out_pos] = weight;
        }
        chunk_begin[chunk] = begin;
        chunk_end[chunk] = out_pos;
      });

  // Merge the key-sorted chunk runs with a min-heap of (key, chunk): equal
  // keys pop in ascending chunk order, so both the per-key summation order
  // and the edge emission order are fixed — the coarse graph (and anything
  // serialized from it) is byte-stable at any thread count.
  using Head = std::pair<int64_t, size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  for (size_t c = 0; c < chunks; ++c) {
    if (chunk_begin[c] < chunk_end[c]) {
      heads.emplace(keyed[chunk_begin[c]].key, c);
    }
  }
  BipartiteGraphBuilder builder(num_left_clusters, num_right_clusters);
  while (!heads.empty()) {
    const int64_t key = heads.top().first;
    double weight = 0.0;
    while (!heads.empty() && heads.top().first == key) {
      const size_t c = heads.top().second;
      heads.pop();
      weight += sums[chunk_begin[c]++];
      if (chunk_begin[c] < chunk_end[c]) {
        heads.emplace(keyed[chunk_begin[c]].key, c);
      }
    }
    const int32_t cu = static_cast<int32_t>(key / num_right_clusters);
    const int32_t ci = static_cast<int32_t>(key % num_right_clusters);
    HIGNN_RETURN_IF_ERROR(
        builder.AddEdge(cu, ci, static_cast<float>(weight)));
  }
  out.graph = builder.Build();
  const int64_t fine_vertices =
      static_cast<int64_t>(graph.num_left()) + graph.num_right();
  const int64_t coarse_vertices =
      static_cast<int64_t>(num_left_clusters) + num_right_clusters;
  if (fine_vertices > 0) {
    obs::GaugeSet("coarsen.vertex_reduction",
                  static_cast<double>(coarse_vertices) /
                      static_cast<double>(fine_vertices));
  }
  if (graph.num_edges() > 0) {
    obs::GaugeSet("coarsen.edge_reduction",
                  static_cast<double>(out.graph.num_edges()) /
                      static_cast<double>(graph.num_edges()));
  }
  return out;
}

}  // namespace hignn
