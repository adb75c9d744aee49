// Micro benchmarks for the complexity claims of Section III-D:
//
//   * one bipartite-GraphSAGE aggregation step costs O((M+N) * K1 * K2)
//     (vertices times the two-hop sampled fanout);
//   * single-pass K-means costs O(M * Ku + N * Ki) — linear in the point
//     count and the cluster count, one pass over the data;
//   * graph coarsening (Eq. 6) is linear in the edge count.
//
// Run with --benchmark_filter=... to select; the *complexity shapes*
// (linear scaling in the argument) are the reproduction target.

#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "data/synthetic.h"
#include "graph/coarsen.h"
#include "graph/sampling.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "sage/bipartite_sage.h"
#include "text/bm25.h"
#include "util/rng.h"

namespace {

using namespace hignn;

SyntheticDataset MakeDataset(int32_t users) {
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.num_users = users;
  config.num_items = users / 2;
  config.mean_clicks_per_user_day = 3.0;
  config.num_days = 4;
  return SyntheticDataset::Generate(config).ValueOrDie();
}

// One unsupervised GraphSAGE training step at fixed batch size, sweeping
// the two-hop fanout product K1*K2 (Sec. III-D's aggregator term).
void BM_SageStepFanout(benchmark::State& state) {
  const int32_t k1 = static_cast<int32_t>(state.range(0));
  const int32_t k2 = static_cast<int32_t>(state.range(1));
  SyntheticDataset dataset = MakeDataset(600);
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  BipartiteSageConfig config;
  config.dims = {16, 16};
  config.fanouts = {k1, k2};
  config.batch_size = 64;
  auto sage = BipartiteSage::Create(
                  config, static_cast<int32_t>(dataset.user_features().cols()),
                  static_cast<int32_t>(dataset.item_features().cols()))
                  .ValueOrDie();
  Rng rng(1);
  Adam optimizer(1e-3f);
  for (auto _ : state) {
    auto loss = sage.TrainStep(graph, dataset.user_features(),
                               dataset.item_features(), optimizer, rng);
    benchmark::DoNotOptimize(loss);
  }
  state.SetLabel("K1*K2=" + std::to_string(k1 * k2));
}
BENCHMARK(BM_SageStepFanout)
    ->Args({5, 3})
    ->Args({10, 5})
    ->Args({20, 10})
    ->Unit(benchmark::kMillisecond);

// Full-graph inference sweeping the vertex count (the (M+N) term).
void BM_SageEmbedAllVertices(benchmark::State& state) {
  const int32_t users = static_cast<int32_t>(state.range(0));
  SyntheticDataset dataset = MakeDataset(users);
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  BipartiteSageConfig config;
  config.dims = {16, 16};
  config.fanouts = {10, 5};
  auto sage = BipartiteSage::Create(
                  config, static_cast<int32_t>(dataset.user_features().cols()),
                  static_cast<int32_t>(dataset.item_features().cols()))
                  .ValueOrDie();
  for (auto _ : state) {
    auto embeddings = sage.EmbedAll(graph, dataset.user_features(),
                                    dataset.item_features());
    benchmark::DoNotOptimize(embeddings);
  }
  state.SetComplexityN(users);
}
BENCHMARK(BM_SageEmbedAllVertices)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Single-pass K-means: O(n * k) — one pass over the points.
void BM_KMeansSinglePass(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t k = static_cast<int32_t>(state.range(1));
  Rng rng(7);
  Matrix points(static_cast<size_t>(n), 32);
  points.FillNormal(rng);
  KMeansConfig config;
  config.k = k;
  config.algorithm = KMeansAlgorithm::kSinglePass;
  config.kmeanspp_init = false;  // isolate the single-pass itself
  for (auto _ : state) {
    auto result = RunKMeans(points, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n) * k);
}
BENCHMARK(BM_KMeansSinglePass)
    ->Args({1000, 50})
    ->Args({2000, 50})
    ->Args({4000, 50})
    ->Args({2000, 100})
    ->Args({2000, 200})
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Lloyd for comparison: multiple passes; per-iteration cost also O(n*k).
void BM_KMeansLloyd(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  Rng rng(7);
  Matrix points(static_cast<size_t>(n), 32);
  points.FillNormal(rng);
  KMeansConfig config;
  config.k = 50;
  config.max_iters = 10;
  config.algorithm = KMeansAlgorithm::kLloyd;
  for (auto _ : state) {
    auto result = RunKMeans(points, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KMeansLloyd)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Coarsening (Eq. 6): linear in |E|.
void BM_CoarsenGraph(benchmark::State& state) {
  const int32_t users = static_cast<int32_t>(state.range(0));
  SyntheticDataset dataset = MakeDataset(users);
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  Rng rng(3);
  Matrix left(static_cast<size_t>(graph.num_left()), 16);
  Matrix right(static_cast<size_t>(graph.num_right()), 16);
  left.FillNormal(rng);
  right.FillNormal(rng);
  std::vector<int32_t> left_assign(static_cast<size_t>(graph.num_left()));
  std::vector<int32_t> right_assign(static_cast<size_t>(graph.num_right()));
  const int32_t ku = std::max(2, graph.num_left() / 5);
  const int32_t ki = std::max(2, graph.num_right() / 5);
  for (size_t v = 0; v < left_assign.size(); ++v) {
    left_assign[v] = static_cast<int32_t>(rng.UniformInt(ku));
  }
  for (size_t v = 0; v < right_assign.size(); ++v) {
    right_assign[v] = static_cast<int32_t>(rng.UniformInt(ki));
  }
  for (auto _ : state) {
    auto coarse = CoarsenBipartiteGraph(graph, left, right, left_assign, ku,
                                        right_assign, ki);
    benchmark::DoNotOptimize(coarse);
  }
  state.SetComplexityN(graph.num_edges());
}
BENCHMARK(BM_CoarsenGraph)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Neighbor sampling throughput (the inner loop of minibatch training).
void BM_NeighborSampling(benchmark::State& state) {
  SyntheticDataset dataset = MakeDataset(1000);
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  NeighborSampler sampler(graph);
  Rng rng(5);
  int32_t vertex = 0;
  for (auto _ : state) {
    auto nbrs = sampler.Sample(Side::kLeft, vertex, 10, rng);
    benchmark::DoNotOptimize(nbrs);
    vertex = (vertex + 1) % graph.num_left();
  }
}
BENCHMARK(BM_NeighborSampling);

// Negative sampling throughput (alias table + edge rejection).
void BM_NegativeSampling(benchmark::State& state) {
  SyntheticDataset dataset = MakeDataset(1000);
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  NegativeSampler sampler(graph);
  Rng rng(5);
  int32_t vertex = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleRightFor(vertex, rng));
    vertex = (vertex + 1) % graph.num_left();
  }
}
BENCHMARK(BM_NegativeSampling);

// Single-thread GEMM on the scalar vs the dispatched SIMD kernel path,
// over the shapes the SAGE layers actually hit (tall-skinny activations
// times small square weights). range(0) = 0 forces scalar, 1 = best path.
void BM_MatMulPath(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  const auto rows = static_cast<size_t>(state.range(1));
  const auto dim = static_cast<size_t>(state.range(2));
  simd::ForcePathForTesting(use_simd ? simd::Best() : simd::IsaPath::kScalar);
  Rng rng(9);
  Matrix a(rows, dim);
  Matrix b(dim, dim);
  a.FillNormal(rng);
  b.FillNormal(rng);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.row(0));
  }
  state.SetLabel(use_simd ? simd::PathName() : "scalar");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(rows * dim * dim));
  simd::ForcePathForTesting(simd::Best());
}
BENCHMARK(BM_MatMulPath)
    ->Args({0, 512, 32})
    ->Args({1, 512, 32})
    ->Args({0, 512, 128})
    ->Args({1, 512, 128})
    ->Unit(benchmark::kMicrosecond);

// Fused gather+aggregate (GroupMeanRowsFrom streaming straight from the
// feature table) vs the unfused Input-copy-then-aggregate pair it
// replaced in SAGE level 0.
void BM_GroupMeanAggregation(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  const auto groups_count = static_cast<size_t>(state.range(1));
  Rng rng(13);
  Matrix features(4096, 64);
  features.FillNormal(rng);
  RowGroups groups;
  for (size_t g = 0; g < groups_count; ++g) {
    for (int k = 0; k < 10; ++k) {
      groups.ids.push_back(static_cast<int32_t>(rng.UniformInt(4096)));
    }
    groups.CloseGroup();
  }
  for (auto _ : state) {
    Tape tape;
    VarId out;
    if (fused) {
      out = tape.GroupMeanRowsFrom(features, groups);
    } else {
      const VarId input = tape.Input(features);
      out = tape.GroupMeanRows(input, groups);
    }
    benchmark::DoNotOptimize(tape.value(out).row(0));
  }
  state.SetLabel(fused ? "fused" : "unfused");
}
BENCHMARK(BM_GroupMeanAggregation)
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Unit(benchmark::kMicrosecond);

// BM25 scoring (the inner loop of topic-description matching).
void BM_Bm25Score(benchmark::State& state) {
  Rng rng(11);
  Bm25Index index;
  for (int d = 0; d < 200; ++d) {
    std::vector<int32_t> doc;
    for (int t = 0; t < 50; ++t) {
      doc.push_back(static_cast<int32_t>(rng.UniformInt(500)));
    }
    index.AddDocument(doc);
  }
  index.Finalize();
  std::vector<int32_t> query = {3, 77, 150, 420};
  int32_t doc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Score(query, doc));
    doc = (doc + 1) % 200;
  }
}
BENCHMARK(BM_Bm25Score);

}  // namespace

BENCHMARK_MAIN();
