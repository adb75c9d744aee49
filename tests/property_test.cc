// Property-based tests: randomized inputs, invariant checks, sweeping
// seeds/shapes with parameterized gtest.

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "grad_check_testing.h"
#include "graph/bipartite_graph.h"
#include "graph/coarsen.h"
#include "nn/tape.h"
#include "util/rng.h"

namespace hignn {
namespace {

// ------------------------------------------------------------------------
// Random computation graphs must back-propagate correctly: build a random
// op pipeline from a single differentiable input, then finite-difference
// check the gradient. Sweeps seeds via TEST_P.
// ------------------------------------------------------------------------

class RandomGraphGradTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphGradTest, RandomOpPipelineGradCheck) {
  Rng rng(GetParam());
  const size_t rows = 2 + rng.UniformInt(4);
  const size_t cols = 2 + rng.UniformInt(4);
  Matrix point(rows, cols);
  point.FillNormal(rng, 1.0f);
  // Keep LeakyReLU inputs away from the kink for finite differences.
  for (size_t i = 0; i < point.size(); ++i) {
    if (std::fabs(point.data()[i]) < 0.05f) point.data()[i] += 0.2f;
  }

  // Pre-draw the random choices so both evaluations build the same graph.
  std::vector<int> ops;
  for (int k = 0; k < 5; ++k) ops.push_back(static_cast<int>(rng.UniformInt(4)));
  Matrix mate(rows, cols);
  mate.FillNormal(rng, 0.7f);
  Matrix weight(cols, cols);
  weight.FillNormal(rng, 0.5f);
  std::vector<int32_t> gather;
  for (size_t r = 0; r < rows; ++r) {
    gather.push_back(static_cast<int32_t>(rng.UniformInt(rows)));
  }

  auto build = [&](Tape& tape, VarId x) {
    VarId h = x;
    for (int op : ops) {
      switch (op) {
        case 0:
          h = tape.Tanh(h);
          break;
        case 1:
          h = tape.Mul(h, tape.Input(mate));
          break;
        case 2:
          h = tape.MatMul(h, tape.Input(weight));
          break;
        case 3:
          h = tape.GatherRows(h, gather);
          break;
      }
    }
    return tape.MeanAll(tape.Mul(h, h));
  };

  auto loss_fn = [&](const Matrix& p) {
    Tape tape;
    VarId x = tape.Input(p, true);
    return static_cast<double>(tape.value(build(tape, x))(0, 0));
  };
  Tape tape;
  VarId x = tape.Input(point, true);
  VarId loss = build(tape, x);
  tape.Backward(loss);
  const GradCheckResult result = CheckGradient(loss_fn, point, tape.grad(x));
  EXPECT_TRUE(result.passed)
      << "seed=" << GetParam() << " abs=" << result.max_abs_error
      << " rel=" << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphGradTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

// ------------------------------------------------------------------------
// Coarsening invariants on random graphs: total weight conserved, shapes
// correct, result validates — for any assignment.
// ------------------------------------------------------------------------

class RandomCoarsenTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCoarsenTest, InvariantsHold) {
  Rng rng(GetParam());
  const int32_t left = 10 + static_cast<int32_t>(rng.UniformInt(40));
  const int32_t right = 10 + static_cast<int32_t>(rng.UniformInt(40));
  BipartiteGraphBuilder builder(left, right);
  const int edges = 30 + static_cast<int>(rng.UniformInt(100));
  for (int e = 0; e < edges; ++e) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<int32_t>(rng.UniformInt(left)),
                             static_cast<int32_t>(rng.UniformInt(right)),
                             static_cast<float>(rng.Uniform(0.1, 3.0)))
                    .ok());
  }
  const BipartiteGraph graph = builder.Build();
  ASSERT_TRUE(graph.Validate().ok());

  Matrix le(static_cast<size_t>(left), 4);
  Matrix re(static_cast<size_t>(right), 4);
  le.FillNormal(rng);
  re.FillNormal(rng);
  const int32_t ku = 2 + static_cast<int32_t>(rng.UniformInt(5));
  const int32_t ki = 2 + static_cast<int32_t>(rng.UniformInt(5));
  std::vector<int32_t> la(static_cast<size_t>(left));
  std::vector<int32_t> ra(static_cast<size_t>(right));
  for (auto& a : la) a = static_cast<int32_t>(rng.UniformInt(ku));
  for (auto& a : ra) a = static_cast<int32_t>(rng.UniformInt(ki));

  auto coarse = CoarsenBipartiteGraph(graph, le, re, la, ku, ra, ki);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse.value().graph.num_left(), ku);
  EXPECT_EQ(coarse.value().graph.num_right(), ki);
  EXPECT_TRUE(coarse.value().graph.Validate().ok());
  EXPECT_NEAR(coarse.value().graph.TotalWeight(), graph.TotalWeight(),
              1e-3 * graph.TotalWeight());
  EXPECT_LE(coarse.value().graph.num_edges(), graph.num_edges());
  EXPECT_LE(coarse.value().graph.num_edges(),
            static_cast<int64_t>(ku) * ki);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCoarsenTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ------------------------------------------------------------------------
// EdgeAt must agree with the materialized edge list for arbitrary graphs
// (including isolated vertices and heavy duplication).
// ------------------------------------------------------------------------

class EdgeAtPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeAtPropertyTest, MatchesEdgeList) {
  Rng rng(GetParam());
  const int32_t left = 5 + static_cast<int32_t>(rng.UniformInt(30));
  const int32_t right = 5 + static_cast<int32_t>(rng.UniformInt(30));
  BipartiteGraphBuilder builder(left, right);
  const int edges = static_cast<int>(rng.UniformInt(120));
  for (int e = 0; e < edges; ++e) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<int32_t>(rng.UniformInt(left)),
                             static_cast<int32_t>(rng.UniformInt(right)))
                    .ok());
  }
  const BipartiteGraph graph = builder.Build();
  // The left-major edge list, read off the CSR neighbor spans.
  std::vector<WeightedEdge> list;
  for (int32_t u = 0; u < graph.num_left(); ++u) {
    const auto span = graph.LeftNeighbors(u);
    for (size_t k = 0; k < span.size; ++k) {
      list.push_back(WeightedEdge{u, span.ids[k], span.weights[k]});
    }
  }
  ASSERT_EQ(static_cast<int64_t>(list.size()), graph.num_edges());
  for (int64_t k = 0; k < graph.num_edges(); ++k) {
    const WeightedEdge e = graph.EdgeAt(k);
    EXPECT_EQ(e.u, list[static_cast<size_t>(k)].u);
    EXPECT_EQ(e.i, list[static_cast<size_t>(k)].i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeAtPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

// ------------------------------------------------------------------------
// AUC properties: shift/scale invariance, label-flip symmetry, and
// agreement with a brute-force pairwise count.
// ------------------------------------------------------------------------

class AucPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AucPropertyTest, MatchesBruteForceAndSymmetries) {
  Rng rng(GetParam());
  const size_t n = 20 + rng.UniformInt(60);
  std::vector<float> scores(n);
  std::vector<float> labels(n);
  for (size_t i = 0; i < n; ++i) {
    // Quantized scores so ties actually occur.
    scores[i] = static_cast<float>(rng.UniformInt(10)) / 10.0f;
    labels[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  // Ensure both classes appear.
  labels[0] = 1.0f;
  labels[1] = 0.0f;

  // Brute force with midrank tie handling.
  double wins = 0.0;
  int64_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (labels[i] < 0.5f) continue;
    for (size_t j = 0; j < n; ++j) {
      if (labels[j] > 0.5f) continue;
      ++pairs;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  const double brute = wins / static_cast<double>(pairs);
  const double fast = ComputeAuc(scores, labels).ValueOrDie();
  EXPECT_NEAR(fast, brute, 1e-9);

  // Monotone transform invariance.
  std::vector<float> shifted(n);
  for (size_t i = 0; i < n; ++i) shifted[i] = 3.0f * scores[i] - 7.0f;
  EXPECT_NEAR(ComputeAuc(shifted, labels).ValueOrDie(), fast, 1e-9);

  // Label flip symmetry: AUC(scores, 1-labels) = 1 - AUC.
  std::vector<float> flipped(n);
  for (size_t i = 0; i < n; ++i) flipped[i] = 1.0f - labels[i];
  EXPECT_NEAR(ComputeAuc(scores, flipped).ValueOrDie(), 1.0 - fast, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertyTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

// ------------------------------------------------------------------------
// K-means invariants across dimensions and cluster counts: reported
// inertia equals recomputed point-to-center distance; every cluster id is
// within range; centers are the means of their members (Lloyd fixpoint,
// up to the last assignment step).
// ------------------------------------------------------------------------

struct KMeansCase {
  int32_t n;
  int32_t dim;
  int32_t k;
};

class KMeansPropertyTest : public ::testing::TestWithParam<KMeansCase> {};

TEST_P(KMeansPropertyTest, InertiaConsistentAndIdsInRange) {
  const KMeansCase c = GetParam();
  Rng rng(static_cast<uint64_t>(c.n * 131 + c.dim * 17 + c.k));
  Matrix points(static_cast<size_t>(c.n), static_cast<size_t>(c.dim));
  points.FillNormal(rng);
  KMeansConfig config;
  config.k = c.k;
  config.seed = 7;
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  double recomputed = 0.0;
  for (int32_t i = 0; i < c.n; ++i) {
    const int32_t a = r.assignment[static_cast<size_t>(i)];
    ASSERT_GE(a, 0);
    ASSERT_LT(a, std::min(c.k, c.n));
    recomputed += RowSquaredDistance(points, static_cast<size_t>(i),
                                     r.centers, static_cast<size_t>(a));
  }
  // RepairEmptyClusters may move a point after the last inertia update,
  // which only ever decreases the distance sum.
  EXPECT_LE(recomputed, r.inertia + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KMeansPropertyTest,
    ::testing::Values(KMeansCase{50, 2, 3}, KMeansCase{200, 8, 10},
                      KMeansCase{64, 32, 4}, KMeansCase{30, 3, 30},
                      KMeansCase{100, 1, 5}, KMeansCase{500, 16, 25}));

// ------------------------------------------------------------------------
// AliasSampler must agree with the normalized weights in distribution for
// arbitrary weight vectors.
// ------------------------------------------------------------------------

class AliasAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AliasAgreementTest, MatchesLinearScanDistribution) {
  Rng rng(GetParam());
  const size_t buckets = 3 + rng.UniformInt(12);
  std::vector<double> weights(buckets);
  for (double& w : weights) {
    w = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.1, 5.0);
  }
  weights[0] = 1.0;  // at least one positive
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);

  AliasSampler sampler(weights);
  const int draws = 60000;
  std::vector<int> counts(buckets, 0);
  Rng draw_rng(GetParam() ^ 0xABCD);
  for (int d = 0; d < draws; ++d) ++counts[sampler.Sample(draw_rng)];
  for (size_t b = 0; b < buckets; ++b) {
    const double expected = weights[b] / total;
    const double observed = counts[b] / static_cast<double>(draws);
    EXPECT_NEAR(observed, expected, 0.015) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AliasAgreementTest,
                         ::testing::Values(51, 52, 53, 54, 55));

// ------------------------------------------------------------------------
// Generator determinism & invariants across preset variations.
// ------------------------------------------------------------------------

class GeneratorSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorSeedTest, InteractionsRespectInvariants) {
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.seed = GetParam();
  auto dataset = SyntheticDataset::Generate(config);
  ASSERT_TRUE(dataset.ok());
  const auto& ds = dataset.value();
  // Purchase implies click (every purchased interaction is an interaction);
  // counters consistent; purchase probability within (0,1).
  for (const auto& interaction : ds.interactions()) {
    const double p = ds.PurchaseProbability(interaction.user,
                                            interaction.item);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  for (int32_t i = 0; i < ds.num_items(); ++i) {
    EXPECT_LE(ds.item_counters()[static_cast<size_t>(i)][1],
              ds.item_counters()[static_cast<size_t>(i)][0]);
  }
  const BipartiteGraph graph = ds.BuildTrainGraph();
  EXPECT_TRUE(graph.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace hignn
