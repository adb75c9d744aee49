// Kernel-layer contracts (nn/simd.h and its consumers):
//  - every SIMD kernel is bitwise identical to the scalar reference, tails
//    and odd shapes included;
//  - every GEMM variant is bitwise identical across ISA paths and thread
//    counts;
//  - the fused constant-source tape ops (GatherRowsFrom / GroupMeanRowsFrom
//    / GroupWeightedSumRowsFrom) reproduce Input(copy) + op bit for bit,
//    all the way up to a full Fit with fused_level0 on vs off;
//  - the GEMM-filtered k-means assignment returns the naive full scan's
//    assignment and inertia bits, ties, duplicate centers, large shared
//    offsets and non-finite inputs included.
// This suite runs twice: once as `kernels.` and once inside the tsan
// binary, where the 1-vs-4-thread cases double as race detectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/hignn.h"
#include "data/synthetic.h"
#include "nn/matrix.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

// Restores the dispatch path (and a 1-thread pool) when a test exits, so
// path-forcing tests cannot leak state into later ones.
class PathGuard {
 public:
  PathGuard() : saved_(simd::Active()) {}
  ~PathGuard() {
    simd::ForcePathForTesting(saved_);
    SetGlobalThreadPoolThreads(1);
  }

 private:
  simd::IsaPath saved_;
};

::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a.data()[i] << " vs "
             << b.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(rng);
  return m;
}

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

// Shapes chosen to exercise every tail: full 8-wide vector panels, partial
// column tails (n % 8 != 0), partial row tiles (m % kGemmRowTile != 0),
// degenerate 1xN / Nx1, and empties.
struct GemmShape {
  size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {3, 7, 5},    {1, 33, 17}, {17, 1, 9},  {5, 9, 1},   {64, 64, 64},
    {4, 8, 8},    {6, 16, 24}, {12, 100, 130}, {8, 3, 31}, {0, 4, 4},
    {4, 0, 4},    {4, 4, 0},
};

TEST(SimdParityTest, MatMulScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 11 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 23 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMul(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMul(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, MatMulBTScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 31 + s.m);
    const Matrix b = RandomMatrix(s.n, s.k, 41 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMulBT(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMulBT(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, MatMulATScalarVsBestBitwiseIdentical) {
  PathGuard guard;
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 53 + s.m);
    const Matrix b = RandomMatrix(s.m, s.n, 61 + s.n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const Matrix scalar = MatMulAT(a, b);
    simd::ForcePathForTesting(simd::Best());
    const Matrix best = MatMulAT(a, b);
    EXPECT_TRUE(BitwiseEqual(scalar, best))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdParityTest, AccumulateAndAxpyAllTailLengths) {
  PathGuard guard;
  for (size_t n = 0; n <= 35; ++n) {
    const std::vector<float> src = RandomVector(n, 71 + n);
    const std::vector<float> base = RandomVector(n, 83 + n);

    std::vector<float> scalar_acc = base;
    std::vector<float> best_acc = base;
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    simd::Accumulate(scalar_acc.data(), src.data(), n);
    simd::ForcePathForTesting(simd::Best());
    simd::Accumulate(best_acc.data(), src.data(), n);
    EXPECT_EQ(scalar_acc, best_acc) << "Accumulate n=" << n;

    std::vector<float> scalar_axpy = base;
    std::vector<float> best_axpy = base;
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    simd::Axpy(scalar_axpy.data(), 0.37f, src.data(), n);
    simd::ForcePathForTesting(simd::Best());
    simd::Axpy(best_axpy.data(), 0.37f, src.data(), n);
    EXPECT_EQ(scalar_axpy, best_axpy) << "Axpy n=" << n;
  }
}

TEST(SimdParityTest, DotAndSquaredDistanceAllTailLengths) {
  PathGuard guard;
  for (size_t n = 0; n <= 35; ++n) {
    const std::vector<float> x = RandomVector(n, 101 + n);
    const std::vector<float> y = RandomVector(n, 113 + n);
    simd::ForcePathForTesting(simd::IsaPath::kScalar);
    const double scalar_dot = simd::Dot(x.data(), y.data(), n);
    const double scalar_sq = simd::SquaredDistance(x.data(), y.data(), n);
    simd::ForcePathForTesting(simd::Best());
    const double best_dot = simd::Dot(x.data(), y.data(), n);
    const double best_sq = simd::SquaredDistance(x.data(), y.data(), n);
    EXPECT_EQ(scalar_dot, best_dot) << "Dot n=" << n;
    EXPECT_EQ(scalar_sq, best_sq) << "SquaredDistance n=" << n;
  }
}

TEST(SimdParityTest, DotMatchesLaneStridedReference) {
  // Pins the documented reduction schedule itself, not just scalar/vector
  // agreement: lane l owns indices congruent to l, merged in fixed order.
  PathGuard guard;
  const size_t n = 29;
  const std::vector<float> x = RandomVector(n, 131);
  const std::vector<float> y = RandomVector(n, 137);
  double lane[simd::kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i % simd::kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  const double expected = ((lane[0] + lane[1]) + lane[2]) + lane[3];
  simd::ForcePathForTesting(simd::Best());
  EXPECT_EQ(expected, simd::Dot(x.data(), y.data(), n));
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  EXPECT_EQ(expected, simd::Dot(x.data(), y.data(), n));
}

TEST(SimdParityTest, RowReductionsRouteThroughSimd) {
  PathGuard guard;
  const Matrix m = RandomMatrix(2, 21, 149);
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  const double scalar_dot = RowDot(m, 0, m, 1);
  const double scalar_sq = RowSquaredDistance(m, 0, m, 1);
  simd::ForcePathForTesting(simd::Best());
  EXPECT_EQ(scalar_dot, RowDot(m, 0, m, 1));
  EXPECT_EQ(scalar_sq, RowSquaredDistance(m, 0, m, 1));
}

TEST(ParallelKernelTest, GemmVariantsOneVsFourThreadsOnBestPath) {
  PathGuard guard;
  simd::ForcePathForTesting(simd::Best());
  const Matrix a = RandomMatrix(128, 64, 157);
  const Matrix b = RandomMatrix(64, 48, 163);
  const Matrix c = RandomMatrix(96, 64, 167);
  const Matrix d = RandomMatrix(128, 80, 173);
  SetGlobalThreadPoolThreads(1);
  const Matrix mm1 = MatMul(a, b);
  const Matrix bt1 = MatMulBT(a, c);
  const Matrix at1 = MatMulAT(a, d);
  SetGlobalThreadPoolThreads(4);
  const Matrix mm4 = MatMul(a, b);
  const Matrix bt4 = MatMulBT(a, c);
  const Matrix at4 = MatMulAT(a, d);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(mm1, mm4));
  EXPECT_TRUE(BitwiseEqual(bt1, bt4));
  EXPECT_TRUE(BitwiseEqual(at1, at4));
}

// --- Fused constant-source tape ops ----------------------------------------

std::vector<std::vector<int32_t>> TestGroups() {
  return {{0, 3, 3, 7}, {}, {5, 1}, {9, 0, 2, 2, 8}};
}

TEST(FusedAggregateTest, GatherRowsFromMatchesInputPlusGather) {
  const Matrix src = RandomMatrix(10, 13, 179);
  const std::vector<int32_t> index = {7, 0, 0, 9, 4};
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId gathered = unfused.GatherRows(in, index);
  Tape fused;
  VarId direct = fused.GatherRowsFrom(src, index);
  EXPECT_TRUE(BitwiseEqual(unfused.value(gathered), fused.value(direct)));
}

TEST(FusedAggregateTest, GroupMeanRowsFromMatchesInputPlusGroupMean) {
  const Matrix src = RandomMatrix(10, 13, 181);
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId mean = unfused.GroupMeanRows(in, TestGroups());
  Tape fused;
  VarId direct = fused.GroupMeanRowsFrom(src, TestGroups());
  EXPECT_TRUE(BitwiseEqual(unfused.value(mean), fused.value(direct)));
}

TEST(FusedAggregateTest, GroupWeightedSumRowsFromMatchesUnfused) {
  const Matrix src = RandomMatrix(10, 13, 191);
  std::vector<std::vector<float>> weights;
  Rng rng(193);
  for (const auto& g : TestGroups()) {
    std::vector<float> w(g.size());
    for (float& x : w) x = static_cast<float>(rng.Uniform(0.0, 1.0));
    weights.push_back(std::move(w));
  }
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId sum = unfused.GroupWeightedSumRows(in, TestGroups(), weights);
  Tape fused;
  VarId direct = fused.GroupWeightedSumRowsFrom(src, TestGroups(), weights);
  EXPECT_TRUE(BitwiseEqual(unfused.value(sum), fused.value(direct)));
}

HignnModel FitWithFusion(bool fused, int threads) {
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  auto dataset = SyntheticDataset::Generate(data_config);
  EXPECT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();

  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {5, 3};
  config.sage.train_steps = 8;
  config.sage.batch_size = 64;
  config.sage.fused_level0 = fused;
  config.num_threads = threads;
  auto model = Hignn::Fit(graph, dataset.value().user_features(),
                          dataset.value().item_features(), config);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

void ExpectModelsIdentical(const HignnModel& a, const HignnModel& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int32_t l = 0; l < a.num_levels(); ++l) {
    const HignnLevel& la = a.levels()[static_cast<size_t>(l)];
    const HignnLevel& lb = b.levels()[static_cast<size_t>(l)];
    EXPECT_EQ(la.left_assignment, lb.left_assignment) << "level " << l;
    EXPECT_EQ(la.right_assignment, lb.right_assignment) << "level " << l;
    EXPECT_TRUE(BitwiseEqual(la.left_embeddings, lb.left_embeddings))
        << "left embeddings, level " << l;
    EXPECT_TRUE(BitwiseEqual(la.right_embeddings, lb.right_embeddings))
        << "right embeddings, level " << l;
    EXPECT_EQ(la.train_loss, lb.train_loss) << "level " << l;
  }
}

TEST(FusedAggregateTest, FitFusedVsUnfusedBitwiseIdentical) {
  const HignnModel fused = FitWithFusion(true, 1);
  const HignnModel unfused = FitWithFusion(false, 1);
  ExpectModelsIdentical(fused, unfused);
}

TEST(FusedAggregateTest, FitFusedOneVsFourThreadsBitwiseIdentical) {
  const HignnModel one = FitWithFusion(true, 1);
  const HignnModel four = FitWithFusion(true, 4);
  ExpectModelsIdentical(one, four);
}

TEST(FusedAggregateTest, FitScalarVsBestPathBitwiseIdentical) {
  PathGuard guard;
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  const HignnModel scalar = FitWithFusion(true, 1);
  simd::ForcePathForTesting(simd::Best());
  const HignnModel best = FitWithFusion(true, 1);
  ExpectModelsIdentical(scalar, best);
}

// --- GEMM-filtered k-means assignment --------------------------------------

// The assignment pass before the GEMM filter, kept as the oracle: every
// center measured with the lane-strided kernel in ascending order, first
// strict minimum kept, and the inertia summed per chunk in the pass's
// workload-derived layout (one chunk below 2^16 distance terms, else up to
// 64) and merged in ascending chunk order.
double NaiveAssign(const Matrix& points, const Matrix& centers,
                   std::vector<int32_t>* assignment) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = centers.rows();
  const size_t chunks =
      n * k * d < (size_t{1} << 16) ? 1 : std::min<size_t>(n, 64);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  assignment->assign(n, 0);
  double inertia = 0.0;
  for (size_t lo = 0; lo < n; lo += chunk_size) {
    double local = 0.0;
    for (size_t i = lo; i < std::min(n, lo + chunk_size); ++i) {
      int32_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (size_t c = 0; c < k; ++c) {
        const double dist =
            simd::SquaredDistance(centers.row(c), points.row(i), d);
        if (dist < best_dist) {
          best_dist = dist;
          best = static_cast<int32_t>(c);
        }
      }
      (*assignment)[i] = best;
      local += best_dist;
    }
    inertia += local;
  }
  return inertia;
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

Matrix Shifted(Matrix m, float offset) {
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] += offset;
  return m;
}

struct AssignCase {
  std::string label;
  Matrix points;
  Matrix centers;
};

std::vector<AssignCase> AssignCases() {
  std::vector<AssignCase> cases;
  // Every tail of the 4x8 GEMM tile and the 4-lane reduction, k from one
  // center to past one 256-center panel, n from below one 16-point block
  // to many blocks per chunk.
  const size_t kDims[] = {1, 3, 4, 5, 8, 32, 33};
  const size_t kCenters[] = {1, 2, 3, 5, 17, 257};
  const size_t kPoints[] = {7, 1100};
  uint64_t seed = 211;
  for (size_t d : kDims) {
    for (size_t k : kCenters) {
      for (size_t n : kPoints) {
        cases.push_back({"random d=" + std::to_string(d) + " k=" +
                             std::to_string(k) + " n=" + std::to_string(n),
                         RandomMatrix(n, d, seed),
                         RandomMatrix(k, d, seed + 1)});
        seed += 2;
      }
    }
  }
  // Rows 3..5 repeat rows 1, 0, 2 and the first points sit exactly on the
  // centers: duplicates tie at distance 0 and the lower index must win.
  {
    Matrix centers = RandomMatrix(6, 8, 401);
    const size_t copy_of[] = {1, 0, 2};
    for (size_t c = 3; c < 6; ++c) {
      const float* src = centers.row(copy_of[c - 3]);
      std::copy(src, src + 8, centers.row(c));
    }
    Matrix points = RandomMatrix(300, 8, 402);
    for (size_t c = 0; c < 6; ++c) {
      std::copy(centers.row(c), centers.row(c) + 8, points.row(c));
    }
    cases.push_back(
        {"duplicate centers", std::move(points), std::move(centers)});
  }
  // Centers at +-2 on two axes and points on the integer lattice
  // {-2..2}^2: many points are exactly equidistant from two or four.
  {
    Matrix centers(4, 3, {2, 0, 0, -2, 0, 0, 0, 2, 0, 0, -2, 0});
    Matrix points(25, 3);
    for (size_t i = 0; i < points.rows(); ++i) {
      points(i, 0) = static_cast<float>(i % 5) - 2.0f;
      points(i, 1) = static_cast<float>(i / 5) - 2.0f;
    }
    cases.push_back({"equidistant", std::move(points), std::move(centers)});
  }
  // A shared offset shrinks the gaps relative to ||x|| max||c||: the
  // filter keeps many candidates but must stay exact.
  for (const float offset : {1e3f, 1e5f}) {
    cases.push_back({"offset " + std::to_string(offset),
                     Shifted(RandomMatrix(1100, 32, 501), offset),
                     Shifted(RandomMatrix(257, 32, 502), offset)});
  }
  // Non-finite inputs take the full scan.
  {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Matrix points = RandomMatrix(300, 8, 601);
    points(3, 2) = nan;
    points(5, 0) = inf;
    points(9, 7) = -inf;
    cases.push_back(
        {"non-finite points", std::move(points), RandomMatrix(17, 8, 602)});
    Matrix centers = RandomMatrix(17, 8, 603);
    centers(1, 4) = nan;
    centers(3, 0) = inf;
    cases.push_back(
        {"non-finite centers", RandomMatrix(300, 8, 604), std::move(centers)});
  }
  return cases;
}

TEST(KMeansAssignTest, FilteredAssignmentMatchesNaiveScan) {
  PathGuard guard;
  const std::vector<AssignCase> cases = AssignCases();
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const int threads : {1, 4}) {
      SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
      for (const AssignCase& c : cases) {
        std::vector<int32_t> naive;
        std::vector<int32_t> filtered;
        const double naive_inertia = NaiveAssign(c.points, c.centers, &naive);
        const double filtered_inertia =
            AssignToNearestCenters(c.points, c.centers, &filtered);
        const std::string where = c.label + " path=" + simd::PathName() +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(naive, filtered) << where;
        EXPECT_EQ(DoubleBits(naive_inertia), DoubleBits(filtered_inertia))
            << where;
      }
    }
  }
}

TEST(KMeansAssignTest, ExactPerPointGaugeCountsMeasuredCenters) {
  const Matrix points = RandomMatrix(1100, 32, 701);
  Matrix centers = RandomMatrix(257, 32, 702);
  const obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("kmeans.exact_per_point");
  std::vector<int32_t> assignment;
  AssignToNearestCenters(points, centers, &assignment);
  EXPECT_GE(gauge.value(), 1.0);
  EXPECT_LT(gauge.value(), 8.0);  // a shortlist, not all 257 centers
  centers(0, 0) = std::numeric_limits<float>::quiet_NaN();
  AssignToNearestCenters(points, centers, &assignment);
  EXPECT_EQ(gauge.value(), 257.0);  // a non-finite center: full scan
}

}  // namespace
}  // namespace hignn
