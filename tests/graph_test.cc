#include "graph/bipartite_graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/coarsen.h"
#include "graph/sampling.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

BipartiteGraph SmallGraph() {
  // Users 0..2, items 0..3.
  BipartiteGraphBuilder builder(3, 4);
  EXPECT_TRUE(builder.AddEdge(0, 0, 1.0f).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1, 2.0f).ok());
  EXPECT_TRUE(builder.AddEdge(1, 1, 1.0f).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 4.0f).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0.5f).ok());
  return builder.Build();
}

TEST(BipartiteGraphTest, BasicCounts) {
  BipartiteGraph g = SmallGraph();
  EXPECT_EQ(g.num_left(), 3);
  EXPECT_EQ(g.num_right(), 4);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_DOUBLE_EQ(GraphShape(g).Density(), 5.0 / 12.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 8.5);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(BipartiteGraphTest, NeighborSpans) {
  BipartiteGraph g = SmallGraph();
  const auto u0 = g.LeftNeighbors(0);
  ASSERT_EQ(u0.size, 2u);
  EXPECT_EQ(u0.ids[0], 0);
  EXPECT_EQ(u0.ids[1], 1);
  EXPECT_FLOAT_EQ(u0.weights[1], 2.0f);

  const auto i1 = g.RightNeighbors(1);
  ASSERT_EQ(i1.size, 2u);
  std::set<int32_t> left(i1.begin(), i1.end());
  EXPECT_EQ(left, (std::set<int32_t>{0, 1}));
  EXPECT_EQ(g.LeftDegree(2), 1);
  EXPECT_EQ(g.RightDegree(3), 1);
}

TEST(BipartiteGraphTest, DuplicateEdgesAccumulate) {
  BipartiteGraphBuilder builder(1, 1);
  ASSERT_TRUE(builder.AddEdge(0, 0, 1.0f).ok());
  ASSERT_TRUE(builder.AddEdge(0, 0, 2.5f).ok());
  BipartiteGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FLOAT_EQ(g.LeftNeighbors(0).weights[0], 3.5f);
}

TEST(BipartiteGraphTest, BuilderRejectsBadInput) {
  BipartiteGraphBuilder builder(2, 2);
  EXPECT_EQ(builder.AddEdge(-1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(2, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 0, 0.0f).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.AddEdge(0, 0, -1.0f).code(),
            StatusCode::kInvalidArgument);
}

TEST(BipartiteGraphTest, EdgesRoundTrip) {
  BipartiteGraph g = SmallGraph();
  // SmallGraph's edges, in the left-major order EdgeAt enumerates.
  const std::vector<WeightedEdge> added = {
      {0, 0, 1.0f}, {0, 1, 2.0f}, {1, 1, 1.0f}, {1, 2, 4.0f}, {2, 3, 0.5f}};
  ASSERT_EQ(g.num_edges(), static_cast<int64_t>(added.size()));
  double total = 0;
  for (int64_t k = 0; k < g.num_edges(); ++k) {
    const WeightedEdge e = g.EdgeAt(k);
    EXPECT_EQ(e.u, added[static_cast<size_t>(k)].u);
    EXPECT_EQ(e.i, added[static_cast<size_t>(k)].i);
    EXPECT_FLOAT_EQ(e.weight, added[static_cast<size_t>(k)].weight);
    total += e.weight;
  }
  EXPECT_DOUBLE_EQ(total, 8.5);
}

TEST(BipartiteGraphTest, EdgeAtMatchesEdges) {
  BipartiteGraph g = SmallGraph();
  // EdgeAt(k) is the k-th entry of the left CSR, u ascending.
  int64_t k = 0;
  for (int32_t u = 0; u < g.num_left(); ++u) {
    const auto span = g.LeftNeighbors(u);
    for (size_t j = 0; j < span.size; ++j, ++k) {
      const WeightedEdge e = g.EdgeAt(k);
      EXPECT_EQ(e.u, u);
      EXPECT_EQ(e.i, span.ids[j]);
      EXPECT_FLOAT_EQ(e.weight, span.weights[j]);
    }
  }
  EXPECT_EQ(k, g.num_edges());
}

TEST(BipartiteGraphTest, EdgeAtWithIsolatedVertices) {
  BipartiteGraphBuilder builder(5, 5);
  ASSERT_TRUE(builder.AddEdge(4, 4, 1.0f).ok());  // Vertices 0..3 isolated.
  BipartiteGraph g = builder.Build();
  const WeightedEdge e = g.EdgeAt(0);
  EXPECT_EQ(e.u, 4);
  EXPECT_EQ(e.i, 4);
}

TEST(BipartiteGraphTest, WeightedDegrees) {
  BipartiteGraph g = SmallGraph();
  EXPECT_DOUBLE_EQ(g.LeftWeightedDegree(0), 3.0);
  EXPECT_DOUBLE_EQ(g.RightWeightedDegree(1), 3.0);
}

TEST(BipartiteGraphTest, EmptyGraph) {
  BipartiteGraphBuilder builder(0, 0);
  BipartiteGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_DOUBLE_EQ(GraphShape(g).Density(), 0.0);
  EXPECT_TRUE(g.Validate().ok());
}

// ------------------------------------------------------------- Sampling --

TEST(NeighborSamplerTest, FullNeighborhoodWhenDegreeSmall) {
  BipartiteGraph g = SmallGraph();
  NeighborSampler sampler(g);
  Rng rng(1);
  const auto nbrs = sampler.Sample(Side::kLeft, 0, 10, rng);
  EXPECT_EQ(nbrs, (std::vector<int32_t>{0, 1}));
}

TEST(NeighborSamplerTest, FanoutCapsSamples) {
  BipartiteGraphBuilder builder(1, 100);
  for (int32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(builder.AddEdge(0, i).ok());
  }
  BipartiteGraph g = builder.Build();
  NeighborSampler sampler(g);
  Rng rng(2);
  const auto nbrs = sampler.Sample(Side::kLeft, 0, 7, rng);
  EXPECT_EQ(nbrs.size(), 7u);
  for (int32_t n : nbrs) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 100);
  }
}

TEST(NeighborSamplerTest, IsolatedVertexEmpty) {
  BipartiteGraphBuilder builder(2, 2);
  ASSERT_TRUE(builder.AddEdge(0, 0).ok());
  BipartiteGraph g = builder.Build();
  NeighborSampler sampler(g);
  Rng rng(3);
  EXPECT_TRUE(sampler.Sample(Side::kLeft, 1, 5, rng).empty());
  EXPECT_TRUE(sampler.Sample(Side::kRight, 1, 5, rng).empty());
}

TEST(NeighborSamplerTest, WeightedSamplingFavorsHeavyEdges) {
  BipartiteGraphBuilder builder(1, 3);
  ASSERT_TRUE(builder.AddEdge(0, 0, 1.0f).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0f).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 98.0f).ok());
  BipartiteGraph g = builder.Build();
  NeighborSampler sampler(g, /*weighted=*/true);
  Rng rng(4);
  int heavy = 0;
  const int draws = 3000;
  for (int k = 0; k < draws; ++k) {
    // Force subsampling with fanout 1 (< degree 3).
    const auto nbrs = sampler.Sample(Side::kLeft, 0, 1, rng);
    ASSERT_EQ(nbrs.size(), 1u);
    if (nbrs[0] == 2) ++heavy;
  }
  EXPECT_GT(heavy, draws * 9 / 10);
}

TEST(NeighborSamplerTest, BatchAlignsWithInputs) {
  BipartiteGraph g = SmallGraph();
  NeighborSampler sampler(g);
  Rng rng(5);
  const RowGroups batches =
      sampler.SampleBatch(Side::kLeft, {2, 0}, 10, rng);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches.offsets, (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(batches.ids, (std::vector<int32_t>{3, 0, 1}));
  EXPECT_EQ(batches.weights.size(), batches.ids.size());
}

TEST(NegativeSamplerTest, AvoidsTrueEdges) {
  // User 0 connects to all items except item 3.
  BipartiteGraphBuilder builder(2, 4);
  for (int32_t i = 0; i < 3; ++i) ASSERT_TRUE(builder.AddEdge(0, i).ok());
  ASSERT_TRUE(builder.AddEdge(1, 3).ok());
  BipartiteGraph g = builder.Build();
  NegativeSampler sampler(g);
  Rng rng(6);
  for (int k = 0; k < 200; ++k) {
    EXPECT_EQ(sampler.SampleRightFor(0, rng, 64), 3);
  }
}

TEST(NegativeSamplerTest, LeftNegativesAvoidEdges) {
  BipartiteGraphBuilder builder(4, 2);
  for (int32_t u = 0; u < 3; ++u) ASSERT_TRUE(builder.AddEdge(u, 0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 1).ok());
  BipartiteGraph g = builder.Build();
  NegativeSampler sampler(g);
  Rng rng(7);
  for (int k = 0; k < 200; ++k) {
    EXPECT_EQ(sampler.SampleLeftFor(0, rng, 64), 3);
  }
}

// A random multigraph (parallel edges, shuffled insertion order) and two
// coarsened levels above it; the top one is nearly complete, the shape
// where the negative sampler's rejection loop probes long lists.
std::vector<BipartiteGraph> RandomGraphLevels() {
  Rng rng(8);
  BipartiteGraphBuilder builder(60, 40);
  for (int k = 0; k < 900; ++k) {
    EXPECT_TRUE(builder
                    .AddEdge(static_cast<int32_t>(rng.UniformInt(60)),
                             static_cast<int32_t>(rng.UniformInt(40)),
                             static_cast<float>(1 + rng.UniformInt(3)))
                    .ok());
  }
  std::vector<BipartiteGraph> levels;
  levels.push_back(builder.Build());
  for (const auto& [left_k, right_k] : {std::pair{12, 8}, std::pair{5, 4}}) {
    const BipartiteGraph& fine = levels.back();
    std::vector<int32_t> left(static_cast<size_t>(fine.num_left()));
    std::vector<int32_t> right(static_cast<size_t>(fine.num_right()));
    for (size_t u = 0; u < left.size(); ++u) {
      left[u] = static_cast<int32_t>(u % static_cast<size_t>(left_k));
    }
    for (size_t i = 0; i < right.size(); ++i) {
      right[i] = static_cast<int32_t>(i % static_cast<size_t>(right_k));
    }
    const Matrix left_embeddings(left.size(), 1);
    const Matrix right_embeddings(right.size(), 1);
    auto coarse = CoarsenBipartiteGraph(fine, left_embeddings,
                                        right_embeddings, std::move(left),
                                        left_k, std::move(right), right_k);
    EXPECT_TRUE(coarse.ok()) << coarse.status().ToString();
    levels.push_back(std::move(coarse).value().graph);
  }
  return levels;
}

TEST(BipartiteGraphTest, BuildEmitsStrictlyAscendingAdjacency) {
  for (const BipartiteGraph& g : RandomGraphLevels()) {
    for (int32_t u = 0; u < g.num_left(); ++u) {
      const auto span = g.LeftNeighbors(u);
      EXPECT_TRUE(std::adjacent_find(span.begin(), span.end(),
                                     std::greater_equal<int32_t>()) ==
                  span.end())
          << "left " << u;
    }
    for (int32_t i = 0; i < g.num_right(); ++i) {
      const auto span = g.RightNeighbors(i);
      EXPECT_TRUE(std::adjacent_find(span.begin(), span.end(),
                                     std::greater_equal<int32_t>()) ==
                  span.end())
          << "right " << i;
    }
  }
}

TEST(NegativeSamplerTest, HasEdgeMatchesLinearScan) {
  for (const BipartiteGraph& g : RandomGraphLevels()) {
    const NegativeSampler sampler(g);
    for (int32_t u = 0; u < g.num_left(); ++u) {
      const auto span = g.LeftNeighbors(u);
      for (int32_t i = 0; i < g.num_right(); ++i) {
        EXPECT_EQ(sampler.HasEdge(u, i),
                  std::find(span.begin(), span.end(), i) != span.end())
            << "(" << u << ", " << i << ")";
      }
    }
  }
}

// -------------------------------------------------------------- Coarsen --

TEST(CoarsenTest, SumsEdgeWeightsPerEq6) {
  // Users {0,1} -> cluster 0, user {2} -> cluster 1.
  // Items {0,1} -> cluster 0, items {2,3} -> cluster 1.
  BipartiteGraph g = SmallGraph();
  Matrix left_emb(3, 2, {1, 0, 3, 0, 0, 5});
  Matrix right_emb(4, 2, {1, 1, 2, 2, 3, 3, 4, 4});
  auto result = CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0, 1}, 2,
                                      {0, 0, 1, 1}, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CoarsenedGraph& coarse = result.value();
  EXPECT_EQ(coarse.graph.num_left(), 2);
  EXPECT_EQ(coarse.graph.num_right(), 2);
  EXPECT_TRUE(coarse.graph.Validate().ok());

  // S(C_u0, C_i0) = e(0,0)+e(0,1)+e(1,1) = 1+2+1 = 4.
  auto span = coarse.graph.LeftNeighbors(0);
  double weight_00 = 0;
  double weight_01 = 0;
  for (size_t k = 0; k < span.size; ++k) {
    if (span.ids[k] == 0) weight_00 = span.weights[k];
    if (span.ids[k] == 1) weight_01 = span.weights[k];
  }
  EXPECT_DOUBLE_EQ(weight_00, 4.0);
  // S(C_u0, C_i1) = e(1,2) = 4.
  EXPECT_DOUBLE_EQ(weight_01, 4.0);
  // S(C_u1, C_i1) = e(2,3) = 0.5; no edge (C_u1, C_i0).
  EXPECT_EQ(coarse.graph.LeftDegree(1), 1);
  EXPECT_FLOAT_EQ(coarse.graph.LeftNeighbors(1).weights[0], 0.5f);
}

TEST(CoarsenTest, ClusterFeaturesAreMeans) {
  BipartiteGraph g = SmallGraph();
  Matrix left_emb(3, 2, {1, 0, 3, 0, 0, 5});
  Matrix right_emb(4, 2, {1, 1, 2, 2, 3, 3, 4, 4});
  auto result = CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0, 1}, 2,
                                      {0, 0, 1, 1}, 2);
  ASSERT_TRUE(result.ok());
  const Matrix& lf = result.value().left_features;
  EXPECT_FLOAT_EQ(lf(0, 0), 2.0f);  // mean(1, 3)
  EXPECT_FLOAT_EQ(lf(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(lf(1, 1), 5.0f);
  const Matrix& rf = result.value().right_features;
  EXPECT_FLOAT_EQ(rf(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(rf(1, 0), 3.5f);
}

TEST(CoarsenTest, EmptyClusterGetsZeroFeature) {
  BipartiteGraph g = SmallGraph();
  Matrix left_emb(3, 1, {1, 2, 3});
  Matrix right_emb(4, 1, {1, 2, 3, 4});
  // Left cluster 2 is empty.
  auto result = CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0, 1}, 3,
                                      {0, 0, 1, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_FLOAT_EQ(result.value().left_features(2, 0), 0.0f);
  EXPECT_EQ(result.value().graph.LeftDegree(2), 0);
}

TEST(CoarsenTest, RejectsBadAssignments) {
  BipartiteGraph g = SmallGraph();
  Matrix left_emb(3, 1);
  Matrix right_emb(4, 1);
  EXPECT_FALSE(CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0}, 2,
                                     {0, 0, 1, 1}, 2)
                   .ok());
  EXPECT_FALSE(CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0, 5}, 2,
                                     {0, 0, 1, 1}, 2)
                   .ok());
  EXPECT_FALSE(CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 0, 1}, 0,
                                     {0, 0, 1, 1}, 2)
                   .ok());
}

TEST(CoarsenTest, PreservesTotalWeight) {
  BipartiteGraph g = SmallGraph();
  Matrix left_emb(3, 1);
  Matrix right_emb(4, 1);
  auto result = CoarsenBipartiteGraph(g, left_emb, right_emb, {0, 1, 0}, 2,
                                      {1, 0, 1, 0}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().graph.TotalWeight(), g.TotalWeight(), 1e-5);
}

// Per cluster-pair double sums of the fine edge weights in a chunked order:
// the left vertices are split as ParallelForChunks splits them into
// `chunks`, each chunk sums its edges in left-major edge order (or
// backwards), and the chunk sums are added in ascending (or descending)
// chunk order.
std::vector<double> ChunkedPairSums(const BipartiteGraph& fine,
                                    const std::vector<int32_t>& left,
                                    const std::vector<int32_t>& right,
                                    int32_t right_k, size_t num_pairs,
                                    size_t chunks, bool backwards,
                                    bool descending) {
  const auto n = static_cast<size_t>(fine.num_left());
  const size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::vector<double>> partials;
  for (size_t lo = 0; lo < n; lo += chunk_size) {
    std::vector<std::pair<size_t, float>> edges;
    for (size_t u = lo; u < std::min(n, lo + chunk_size); ++u) {
      const auto span = fine.LeftNeighbors(static_cast<int32_t>(u));
      for (size_t k = 0; k < span.size; ++k) {
        const auto ci = right[static_cast<size_t>(span.ids[k])];
        edges.emplace_back(static_cast<size_t>(left[u] * right_k + ci),
                           span.weights[k]);
      }
    }
    if (backwards) std::reverse(edges.begin(), edges.end());
    std::vector<double> sums(num_pairs, 0.0);
    for (const auto& [pair, weight] : edges) sums[pair] += weight;
    partials.push_back(std::move(sums));
  }
  if (descending) std::reverse(partials.begin(), partials.end());
  std::vector<double> total(num_pairs, 0.0);
  for (const auto& sums : partials) {
    for (size_t pair = 0; pair < num_pairs; ++pair) total[pair] += sums[pair];
  }
  return total;
}

TEST(CoarsenTest, ChunkedWeightSumsKeepEdgeAndChunkOrder) {
  // 640 users x 32 items = 20480 edges, above the 2^14-edge cutoff where
  // the weight reduction splits the users into 32 chunks, onto 5 x 4
  // cluster pairs: ~1000 fine edges per coarse edge, from every chunk.
  constexpr int32_t kUsers = 640;
  constexpr int32_t kItems = 400;
  constexpr int32_t kDegree = 32;
  constexpr int32_t kLeftK = 5;
  constexpr int32_t kRightK = 4;
  constexpr size_t kPairs = kLeftK * kRightK;
  constexpr size_t kChunks = 32;
  constexpr size_t kChunkSize = (kUsers + kChunks - 1) / kChunks;
  Rng rng(61);
  std::vector<int32_t> left(kUsers);
  std::vector<int32_t> right(kItems);
  for (auto& c : left) c = static_cast<int32_t>(rng.UniformInt(kLeftK));
  for (auto& c : right) c = static_cast<int32_t>(rng.UniformInt(kRightK));

  // The weights put each pair's sum on a float rounding tie, so its bits
  // depend on the summation order. A pair's first edge (left-major) weighs
  // 2^53 and its second 2^29: that double sum is the midpoint of two
  // floats, and there a lone added term below 1 (half a double ulp) is
  // absorbed while a larger pre-summed one is not. The pair's later edges
  // weigh 1 in its first chunk. In later chunks they weigh 1 for even
  // pairs: the chunk sums (~30) move the total, where one running sum
  // would absorb the edges one by one. For odd pairs they weigh 2^-8: each
  // chunk sum is absorbed, but summed first, as a descending merge or a
  // backwards chunk scan would, they are not.
  std::vector<int32_t> seen(kPairs, 0);
  std::vector<size_t> first_chunk(kPairs, 0);
  std::vector<int32_t> items(kItems);
  std::iota(items.begin(), items.end(), 0);
  BipartiteGraphBuilder builder(kUsers, kItems);
  for (int32_t u = 0; u < kUsers; ++u) {
    rng.Shuffle(items);
    std::vector<int32_t> picked(items.begin(), items.begin() + kDegree);
    std::sort(picked.begin(), picked.end());
    const size_t chunk = static_cast<size_t>(u) / kChunkSize;
    for (const int32_t i : picked) {
      const auto pair = static_cast<size_t>(
          left[static_cast<size_t>(u)] * kRightK +
          right[static_cast<size_t>(i)]);
      float weight = 1.0f;
      if (seen[pair] == 0) {
        weight = 0x1p53f;
        first_chunk[pair] = chunk;
      } else if (seen[pair] == 1) {
        weight = 0x1p29f;
      } else if (chunk != first_chunk[pair] && pair % 2 == 1) {
        weight = 0x1p-8f;
      }
      ++seen[pair];
      ASSERT_TRUE(builder.AddEdge(u, i, weight).ok());
    }
  }
  const BipartiteGraph fine = builder.Build();
  ASSERT_GE(fine.num_edges(), int64_t{1} << 14);

  const auto sums = [&](size_t chunks, bool backwards, bool descending) {
    return ChunkedPairSums(fine, left, right, kRightK, kPairs, chunks,
                           backwards, descending);
  };
  const std::vector<double> want = sums(kChunks, false, false);
  // The data pins the order: each other order changes some pair's bits.
  const auto changed_pairs = [&](const std::vector<double>& other) {
    size_t changed = 0;
    for (size_t pair = 0; pair < kPairs; ++pair) {
      changed += static_cast<float>(want[pair]) !=
                 static_cast<float>(other[pair]);
    }
    return changed;
  };
  EXPECT_GT(changed_pairs(sums(1, false, false)), 0u);
  EXPECT_GT(changed_pairs(sums(kChunks, false, true)), 0u);
  EXPECT_GT(changed_pairs(sums(kChunks, true, false)), 0u);

  for (const size_t threads : {1, 4}) {
    SetGlobalThreadPoolThreads(threads);
    auto coarse = CoarsenBipartiteGraph(fine, Matrix(kUsers, 1),
                                        Matrix(kItems, 1), left, kLeftK,
                                        right, kRightK);
    ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
    const BipartiteGraph& g = coarse.value().graph;
    EXPECT_EQ(g.num_edges(),
              std::count_if(seen.begin(), seen.end(),
                            [](int32_t n) { return n > 0; }));
    for (int32_t cu = 0; cu < kLeftK; ++cu) {
      const auto span = g.LeftNeighbors(cu);
      for (size_t k = 0; k < span.size; ++k) {
        const auto pair = static_cast<size_t>(cu * kRightK + span.ids[k]);
        EXPECT_EQ(std::bit_cast<uint32_t>(span.weights[k]),
                  std::bit_cast<uint32_t>(static_cast<float>(want[pair])))
            << "pair (" << cu << ", " << span.ids[k] << ") at " << threads
            << " threads";
      }
    }
  }
  SetGlobalThreadPoolThreads(0);
}

}  // namespace
}  // namespace hignn
