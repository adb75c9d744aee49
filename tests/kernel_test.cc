// Kernel-layer contracts (nn/simd.h and its consumers):
//  - every SIMD kernel is bitwise identical to the scalar reference, tails
//    and odd shapes included;
//  - every GEMM variant is bitwise identical across ISA paths and thread
//    counts;
//  - the fused constant-source tape ops (GatherRowsFrom / GroupMeanRowsFrom
//    / GroupWeightedSumRowsFrom) that SAGE's first step streams from the
//    feature tables reproduce Input(copy) + op bit for bit;
//  - the flat-CSR neighbor sampling and grouped aggregation reproduce the
//    per-vertex and nested forms they replaced;
//  - simd::Tanh reproduces glibc 2.36's tanhf bits on both paths;
//  - simd::LeakyRelu keeps NaNs and signed zeros on every path, and
//    MatMulSerial's shared leading columns give MatMul's bits for every
//    prefix length, signed-zero and NaN-payload rows included;
//  - simd::MatchDots gives the scalar chain's bits on every path for every
//    row count, level count and level width around the 4-row and 4-column
//    groups, NaN payloads and the float extremes included, and equals a
//    naive double loop whose NaN results are written as the quiet NaN;
//  - Hignn::Fit still returns the model bits pinned before the kernel and
//    sampling rewrites, on every path and thread count;
//  - the GEMM-filtered k-means assignment returns the naive full scan's
//    assignment and inertia bits, ties, duplicate centers, large shared
//    offsets and non-finite inputs included;
//  - whole Lloyd runs (k-means++ seeding, the drift-bounded passes, reseeds
//    and repair) return a naive Lloyd's assignment, inertia, center bytes,
//    iterations and reseeds at K = 1200, where every bound path is live.
// This suite runs twice: once as `kernels.` and once inside the tsan
// binary, where the 1-vs-4-thread cases double as race detectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/checkpoint.h"
#include "core/hignn.h"
#include "core/training_monitor.h"
#include "data/synthetic.h"
#include "graph/sampling.h"
#include "nn/matrix.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "pool_testing.h"
#include "row_groups_testing.h"
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

// Shapes chosen to exercise every tail: full 16-wide register tiles, a
// lone 8-wide tile, partial column tails (n % 8 != 0), partial row tiles
// (m % kGemmRowTile != 0), the n = 1 register-chain path, depths past one
// 256-deep panel, a MatMulAT row-vector output crossing a 256-column panel
// edge (300x50x1), degenerate 1xN / Nx1, and empties.
struct GemmShape {
  size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {3, 7, 5},     {1, 33, 17}, {17, 1, 9},  {5, 9, 1},   {64, 64, 64},
    {4, 8, 8},     {6, 16, 24}, {12, 100, 130}, {8, 3, 31}, {0, 4, 4},
    {4, 0, 4},     {4, 4, 0},   {37, 32, 1}, {9, 20, 16}, {6, 13, 17},
    {11, 40, 31},  {7, 64, 32}, {2, 300, 1}, {5, 300, 20}, {300, 50, 1},
};

// The canonical chain every GEMM variant is defined by: a float
// accumulator starting at 0, p ascending, mul then add.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      out(i, j) = acc;
    }
  }
  return out;
}

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

TEST(SimdParityTest, GemmVariantsMatchNaiveChainOnEveryPath) {
  PathGuard guard;
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const GemmShape& s : kGemmShapes) {
      const Matrix a = RandomMatrix(s.m, s.k, 71 + s.m);
      const Matrix b = RandomMatrix(s.k, s.n, 73 + s.n);
      const Matrix at = Transpose(a);
      const Matrix bt = Transpose(b);
      const Matrix want = NaiveMatMul(a, b);
      const std::string where = std::string(simd::PathName()) + " shape " +
                                std::to_string(s.m) + "x" +
                                std::to_string(s.k) + "x" +
                                std::to_string(s.n);
      EXPECT_TRUE(BitwiseEqual(want, MatMul(a, b))) << "MatMul " << where;
      EXPECT_TRUE(BitwiseEqual(want, MatMulBT(a, bt))) << "MatMulBT " << where;
      EXPECT_TRUE(BitwiseEqual(want, MatMulAT(at, b))) << "MatMulAT " << where;
    }
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
  // Every product below has at least 64 * 48 flops a row of `a`, so each
  // one fans out at 4 threads.
  const size_t rows = RowsAboveSerialCutoff(64 * 48);
  const Matrix a = RandomMatrix(rows, 64, 157);
  const Matrix b = RandomMatrix(64, 48, 163);
  const Matrix c = RandomMatrix(96, 64, 167);
  const Matrix d = RandomMatrix(rows, 80, 173);
  SetGlobalThreadPoolThreads(1);
  const Matrix mm1 = MatMul(a, b);
  const Matrix bt1 = MatMulBT(a, c);
  const Matrix at1 = MatMulAT(a, d);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix mm4 = MatMul(a, b);
  EXPECT_EQ(dispatches.value(), 1);
  const Matrix bt4 = MatMulBT(a, c);
  EXPECT_EQ(dispatches.value(), 2);
  const Matrix at4 = MatMulAT(a, d);
  EXPECT_EQ(dispatches.value(), 3);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(mm1, mm4));
  EXPECT_TRUE(BitwiseEqual(bt1, bt4));
  EXPECT_TRUE(BitwiseEqual(at1, at4));
}

// --- Tanh -----------------------------------------------------------------

// (input, glibc 2.36 tanhf output) bit pairs, evaluated at run time (a
// compiler may fold a constant std::tanh call with a correctly rounded
// library instead): signed zeros, subnormals, both sides of the 2^-55,
// 2^-25, 0.5 ln2, 1.5 ln2, 1 and 22 branch boundaries, every expm1f
// exponent-scaling branch, +-inf and NaNs (payload kept, signaling
// quieted). The last five are inputs where a port with FreeBSD's 2-term
// expm1f polynomial lands 1 ulp below glibc's 5-term one.
constexpr std::pair<uint32_t, uint32_t> kGlibcTanh[] = {
    {0x00000000u, 0x00000000u}, {0x80000000u, 0x80000000u},
    {0x00000001u, 0x00000001u}, {0x807fffffu, 0x807fffffu},
    {0x00400000u, 0x00400000u}, {0x23ffffffu, 0x23ffffffu},
    {0xa3ffffffu, 0xa3ffffffu}, {0x24000000u, 0x24000000u},
    {0xa4000000u, 0xa4000000u}, {0x24000001u, 0x24000001u},
    {0x32ffffffu, 0x32ffffffu}, {0x33000000u, 0x33000000u},
    {0x3e000000u, 0x3dfeaccau}, {0x3e317218u, 0x3e2fb0cdu},
    {0x3e317219u, 0x3e2fb0cdu}, {0x3e42d0ddu, 0x3e407fbcu},
    {0x3e851592u, 0x3e822a78u}, {0xbe851593u, 0xbe822a78u},
    {0x3decc57eu, 0x3debb8e1u}, {0xbdecc57eu, 0xbdebb8e1u},
    {0x3f000000u, 0x3eec9a9fu}, {0x3f7fffffu, 0x3f42f7d5u},
    {0xbf7fffffu, 0xbf42f7d5u}, {0x3f800000u, 0x3f42f7d6u},
    {0xbf800000u, 0xbf42f7d6u}, {0x3fc00000u, 0x3f67b7ccu},
    {0x40000000u, 0x3f76ca83u}, {0x40400000u, 0x3f7ebbe9u},
    {0x41000000u, 0x3f7ffffcu}, {0x41200000u, 0x3f800000u},
    {0x41800000u, 0x3f800000u}, {0x41a00000u, 0x3f800000u},
    {0x41afffffu, 0x3f800000u}, {0xc1afffffu, 0xbf800000u},
    {0x41b00000u, 0x3f800000u}, {0xc1b00000u, 0xbf800000u},
    {0x42c80000u, 0x3f800000u}, {0x7f7fffffu, 0x3f800000u},
    {0xff7fffffu, 0xbf800000u}, {0x7f800000u, 0x3f800000u},
    {0xff800000u, 0xbf800000u}, {0x7fc00000u, 0x7fc00000u},
    {0xffc00000u, 0xffc00000u}, {0x7f800001u, 0x7fc00001u},
    {0x7fc12345u, 0x7fc12345u}, {0x3f5d2a6fu, 0x3f32c23du},
    {0xbf12b3c4u, 0xbf04816au}, {0x3e99999au, 0x3e9526edu},
    {0xc0a00000u, 0xbf7ffa0du}, {0x40e00000u, 0x3f7fffe4u},
    {0x3c895eb7u, 0x3c895b6cu}, {0xbc895eb7u, 0xbc895b6cu},
    {0x3cd41185u, 0x3cd40565u}, {0xbcd41185u, 0xbcd40565u},
    {0x3cd53277u, 0x3cd52626u},
};

TEST(TanhKernelTest, MatchesGlibcTableOnEveryPath) {
  PathGuard guard;
  // Each input fills a whole 8-lane block, so the vector path computes
  // every entry in its lanes rather than in the scalar tail.
  std::vector<float> x;
  for (const auto& [in, out] : kGlibcTanh) {
    x.insert(x.end(), 8, std::bit_cast<float>(in));
  }
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    std::vector<float> y = x;
    simd::Tanh(y.data(), y.size());
    for (size_t i = 0; i < y.size(); ++i) {
      const auto& [in, out] = kGlibcTanh[i / 8];
      EXPECT_EQ(std::bit_cast<uint32_t>(y[i]), out)
          << std::hex << "tanh(0x" << in << ") on " << simd::PathName();
    }
  }
}

TEST(TanhKernelTest, StridedSweepScalarEqualsBestPath) {
  // Every 4099th bit pattern (~1M inputs, all exponents and signs); the
  // full 2^32 sweep is tools/hignn_tanh_sweep.
  PathGuard guard;
  constexpr uint64_t kStride = 4099;
  std::vector<float> x;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += kStride) {
    x.push_back(std::bit_cast<float>(static_cast<uint32_t>(bits)));
  }
  std::vector<float> scalar = x;
  std::vector<float> best = x;
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  simd::Tanh(scalar.data(), scalar.size());
  simd::ForcePathForTesting(simd::Best());
  simd::Tanh(best.data(), best.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t want = std::bit_cast<uint32_t>(scalar[i]);
    if (std::bit_cast<uint32_t>(best[i]) != want && ++mismatches <= 3) {
      ADD_FAILURE() << std::hex << "tanh(0x" << std::bit_cast<uint32_t>(x[i])
                    << "): scalar 0x" << want
                    << " vs " << simd::PathName() << " 0x"
                    << std::bit_cast<uint32_t>(best[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- LeakyReLU kernel and the shared-prefix GEMM ----------------------------

bool SameBytes(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBytes(a.data(), b.data(), a.size());
}

// Signed zeros, infinities, NaNs with distinct payloads and signs (one
// signalling), denormals of both signs, and the float extremes.
const uint32_t kLeakyReluSpecials[] = {
    0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
    0x7fc01234u, 0xffc00001u, 0x7f800001u, 0x00000001u, 0x80000001u,
    0x007fffffu, 0x807fffffu, 0x7f7fffffu, 0xff7fffffu, 0x80800000u,
    0xbfc00000u, 0x40200000u,
};

TEST(LeakyReluKernelTest, ScalarEqualsBestPathOnEveryTailLength) {
  PathGuard guard;
  constexpr size_t kSpecials = std::size(kLeakyReluSpecials);
  for (const float slope : {0.0f, 0.01f}) {
    for (size_t n = 0; n <= 67; ++n) {
      // Every other element is special, starting at a shifting offset, so
      // each one lands in vector lanes and in scalar tails over the sweep.
      std::vector<float> x = RandomVector(n, 211 + n);
      for (size_t i = 0; i < n; i += 2) {
        x[i] = std::bit_cast<float>(
            kLeakyReluSpecials[(i / 2 + n) % kSpecials]);
      }
      std::vector<float> scalar = x;
      std::vector<float> best = x;
      simd::ForcePathForTesting(simd::IsaPath::kScalar);
      simd::LeakyRelu(scalar.data(), slope, n);
      simd::ForcePathForTesting(simd::Best());
      simd::LeakyRelu(best.data(), slope, n);
      EXPECT_TRUE(SameBytes(scalar.data(), best.data(), n))
          << "slope " << slope << " n=" << n << " on " << simd::PathName();
    }
  }
}

TEST(LeakyReluKernelTest, KeepsNanAndSignedZeroAndScalesNegatives) {
  PathGuard guard;
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    // Eight copies of each input, so the vector path computes it in lanes.
    for (const uint32_t in : kLeakyReluSpecials) {
      const float v = std::bit_cast<float>(in);
      for (const float slope : {0.0f, 0.01f}) {
        std::vector<float> x(8, v);
        simd::LeakyRelu(x.data(), slope, x.size());
        const std::vector<float> want(8, v < 0.0f ? slope * v : v);
        EXPECT_TRUE(SameBytes(x.data(), want.data(), x.size()))
            << std::hex << "0x" << in << " on " << simd::PathName();
      }
    }
    std::vector<float> relu(8, -2.0f);
    simd::LeakyRelu(relu.data(), 0.0f, relu.size());
    EXPECT_EQ(std::bit_cast<uint32_t>(relu[0]), 0x80000000u);  // 0 * -2
  }
}

// `a` with its first `shared` columns copied from row 0 into every row,
// and every later row's column `shared` moved off row 0's, so exactly
// `shared` leading columns are common to all rows.
Matrix WithSharedPrefix(size_t m, size_t k, size_t shared, uint64_t seed) {
  Matrix a = RandomMatrix(m, k, seed);
  for (size_t i = 1; i < m; ++i) {
    std::copy(a.row(0), a.row(0) + shared, a.row(i));
    if (shared < k) a(i, shared) = a(0, shared) + 1.0f;
  }
  return a;
}

TEST(SharedPrefixGemmTest, MatMulSerialEqualsMatMulForEveryPrefix) {
  PathGuard guard;
  // Depths past one 256-deep panel, widths past one 256-wide panel, row
  // counts off the 4-row tile, n % 8 != 0, n < 8, and a single row.
  const GemmShape shapes[] = {{7, 300, 37}, {13, 40, 270}, {6, 600, 19},
                              {1, 9, 5},    {5, 17, 3},    {9, 257, 8}};
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const GemmShape& s : shapes) {
      const Matrix b = RandomMatrix(s.k, s.n, 227 + s.k);
      for (const size_t shared :
           {size_t{0}, size_t{1}, size_t{5}, s.k / 2, s.k - 1, s.k}) {
        if (shared > s.k) continue;
        const Matrix a = WithSharedPrefix(s.m, s.k, shared, 229 + shared);
        EXPECT_TRUE(SameBytes(MatMulSerial(a, b), MatMul(a, b)))
            << s.m << "x" << s.k << "x" << s.n << " shared " << shared
            << " on " << simd::PathName();
      }
    }
  }
}

TEST(SharedPrefixGemmTest, PrefixStopsAtSignedZeroAndNanPayloadBytes) {
  PathGuard guard;
  constexpr size_t kM = 6;
  constexpr size_t kK = 40;
  constexpr size_t kN = 21;
  const Matrix b = RandomMatrix(kK, kN, 233);
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const size_t p : {size_t{0}, size_t{7}, kK - 1}) {
      // Rows equal to row 0 everywhere except column p: +0.0 against -0.0,
      // then two quiet NaNs whose payloads differ. Each chain then carries
      // its own row's NaN payload, so a prefix that ran past p would
      // give every row row 0's payload.
      const std::pair<uint32_t, uint32_t> variants[] = {
          {0x00000000u, 0x80000000u}, {0x7fc00001u, 0x7fc00002u}};
      for (const auto& [first, other] : variants) {
        Matrix a = WithSharedPrefix(kM, kK, kK, 239);
        a(0, p) = std::bit_cast<float>(first);
        for (size_t i = 1; i < kM; ++i) {
          a(i, p) = std::bit_cast<float>(i % 2 == 0 ? first : other);
        }
        const Matrix serial = MatMulSerial(a, b);
        EXPECT_TRUE(SameBytes(serial, MatMul(a, b)))
            << "column " << p << std::hex << " 0x" << other << " on "
            << simd::PathName();
        if (std::isnan(std::bit_cast<float>(other))) {
          EXPECT_FALSE(SameBytes(serial.row(0), serial.row(1), kN));
        }
      }
    }
  }
}

// --- Match dots ---------------------------------------------------------------

// Signed zeros, infinities, quiet and signalling NaNs with distinct
// payloads and signs, denormals of both signs, and the float extremes.
const uint32_t kMatchDotSpecials[] = {
    0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
    0x7fc01234u, 0xffc00001u, 0x7f800001u, 0xff812345u, 0x7fa00000u,
    0x00000001u, 0x80000001u, 0x007fffffu, 0x807fffffu, 0x7f7fffffu,
    0xff7fffffu,
};

// One MatchDots case: `rows` item rows of `levels` levels of width `d`,
// `pad` floats apart beyond their blocks, and the output rows likewise
// padded, so a kernel writing outside its columns shows.
struct MatchDotsCase {
  size_t rows;
  size_t levels;
  size_t d;
  std::vector<float> user;
  std::vector<float> items;
  size_t item_stride;
  size_t out_stride;
};

MatchDotsCase MakeMatchDotsCase(size_t rows, size_t levels, size_t d,
                                uint64_t seed) {
  MatchDotsCase c{rows, levels, d, {}, {}, levels * d + 3, levels + 2};
  c.user = RandomVector(levels * d, seed);
  c.items = RandomVector(rows * c.item_stride, seed + 1);
  return c;
}

// Overwrites every `period`-th float of both operands, from a shifting
// offset, with the specials in turn, so they meet each other, finite
// values and running sums in lanes and in scalar tails.
void SprinkleSpecials(MatchDotsCase& c, size_t period, size_t offset) {
  constexpr size_t kSpecials = std::size(kMatchDotSpecials);
  size_t next = offset;
  for (std::vector<float>* v : {&c.user, &c.items}) {
    for (size_t i = offset % period; i < v->size(); i += period) {
      (*v)[i] = std::bit_cast<float>(kMatchDotSpecials[next++ % kSpecials]);
    }
  }
}

std::vector<float> RunMatchDots(const MatchDotsCase& c) {
  std::vector<float> out(c.rows * c.out_stride,
                         std::bit_cast<float>(0x7fc0dead));
  simd::MatchDots(c.user.data(), c.items.data(), c.item_stride, c.rows,
                  c.levels, c.d, out.data(), c.out_stride);
  return out;
}

TEST(MatchDotsKernelTest, ScalarEqualsBestPathOnEveryShapeAndSpecial) {
  PathGuard guard;
  for (size_t rows = 0; rows <= 9; ++rows) {
    for (size_t levels = 0; levels <= 9; ++levels) {
      for (const size_t d : {0, 1, 3, 4, 5, 8, 16, 17, 21}) {
        // No specials, a sparse sprinkle, and every other operand special.
        for (const size_t period : {size_t{0}, size_t{5}, size_t{2}}) {
          MatchDotsCase c =
              MakeMatchDotsCase(rows, levels, d, 241 + rows * 131 + d);
          if (period > 0) SprinkleSpecials(c, period, rows + levels + d);
          simd::ForcePathForTesting(simd::IsaPath::kScalar);
          const std::vector<float> scalar = RunMatchDots(c);
          simd::ForcePathForTesting(simd::Best());
          const std::vector<float> best = RunMatchDots(c);
          ASSERT_TRUE(SameBytes(scalar.data(), best.data(), scalar.size()))
              << rows << " rows, " << levels << " levels, d " << d
              << ", specials every " << period << " on " << simd::PathName();
        }
      }
    }
  }
}

TEST(MatchDotsKernelTest, EqualsNaiveDoubleLoopWithNansAsTheQuietNan) {
  PathGuard guard;
  // 2^60, 1, -2^60, 1/4 against a user block of ones, rotated by row and
  // level: in ascending order the 2^60 absorbs what follows it until the
  // -2^60 cancels it, so a chain that adds its columns in another order
  // keeps or loses other small terms and ends elsewhere.
  const float absorbing[] = {0x1p60f, 1.0f, -0x1p60f, 0.25f};
  constexpr size_t kSpecials = std::size(kMatchDotSpecials);
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const size_t rows : {size_t{1}, size_t{4}, size_t{7}, size_t{13}}) {
      for (const size_t d : {1, 4, 16, 21}) {
        const size_t levels = 7;
        MatchDotsCase c = MakeMatchDotsCase(rows, levels, d, 251 + d);
        if (rows % 2 == 1) {
          std::fill(c.user.begin(), c.user.end(), 1.0f);
          for (size_t r = 0; r < rows; ++r) {
            for (size_t k = 0; k < levels * d; ++k) {
              c.items[r * c.item_stride + k] =
                  absorbing[(k % d + r + k / d) % std::size(absorbing)];
            }
          }
        } else {
          for (size_t i = 0; i < c.items.size(); i += 9) {
            c.items[i] = std::bit_cast<float>(kMatchDotSpecials[i % kSpecials]);
          }
          c.user[d % c.user.size()] =
              std::bit_cast<float>(kMatchDotSpecials[d % kSpecials]);
        }
        const std::vector<float> out = RunMatchDots(c);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t l = 0; l < levels; ++l) {
            double sum = 0.0;
            for (size_t k = 0; k < d; ++k) {
              sum += static_cast<double>(c.user[l * d + k]) *
                     static_cast<double>(c.items[r * c.item_stride + l * d + k]);
            }
            const float want = std::isnan(sum)
                                   ? std::numeric_limits<float>::quiet_NaN()
                                   : static_cast<float>(sum);
            EXPECT_TRUE(SameBytes(&out[r * c.out_stride + l], &want, 1))
                << "row " << r << " level " << l << " d " << d << " on "
                << simd::PathName();
          }
        }
      }
    }
  }
}

// --- Flat-CSR sampling and aggregation --------------------------------------

TEST(FlatSamplingTest, SampleBatchEqualsPerVertexSampleOnSameStream) {
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  auto dataset = SyntheticDataset::Generate(data_config);
  ASSERT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  std::vector<int32_t> vertices;
  Rng pick(5);
  for (int k = 0; k < 300; ++k) {
    vertices.push_back(static_cast<int32_t>(
        pick.UniformInt(static_cast<uint64_t>(graph.num_right()))));
  }
  for (const bool weighted : {false, true}) {
    for (const int32_t fanout : {1, 3, 10}) {
      const NeighborSampler sampler(graph, weighted);
      Rng flat_rng(17);
      Rng nested_rng(17);
      const RowGroups flat =
          sampler.SampleBatch(Side::kRight, vertices, fanout, flat_rng);
      ASSERT_EQ(flat.size(), vertices.size());
      ASSERT_EQ(flat.weights.size(), flat.ids.size());
      for (size_t k = 0; k < vertices.size(); ++k) {
        const std::vector<int32_t> one =
            sampler.Sample(Side::kRight, vertices[k], fanout, nested_rng);
        const std::vector<int32_t> got(
            flat.ids.begin() + static_cast<ptrdiff_t>(flat.offsets[k]),
            flat.ids.begin() + static_cast<ptrdiff_t>(flat.offsets[k + 1]));
        ASSERT_EQ(got, one) << "vertex " << vertices[k] << " fanout "
                            << fanout << " weighted " << weighted;
        // Each weight is the weight of the edge its id was sampled from.
        const auto span = graph.RightNeighbors(vertices[k]);
        for (size_t j = flat.offsets[k]; j < flat.offsets[k + 1]; ++j) {
          const auto at = std::find(span.begin(), span.end(), flat.ids[j]);
          ASSERT_NE(at, span.end());
          EXPECT_EQ(flat.weights[j], span.weights[at - span.begin()]);
        }
      }
      // Both streams advanced identically.
      EXPECT_EQ(flat_rng.Next(), nested_rng.Next());
    }
  }
}

std::vector<std::vector<int32_t>> NestedTestGroups() {
  return {{0, 3, 3, 7}, {}, {5, 1}, {9, 0, 2, 2, 8}};
}

std::vector<std::vector<float>> NestedTestWeights() {
  std::vector<std::vector<float>> weights;
  Rng rng(193);
  for (const auto& g : NestedTestGroups()) {
    std::vector<float> w(g.size());
    for (float& x : w) x = static_cast<float>(rng.Uniform(0.0, 1.0));
    weights.push_back(std::move(w));
  }
  return weights;
}

RowGroups TestGroups() {
  return RowGroupsOf(NestedTestGroups(), NestedTestWeights());
}

// The nested-vector aggregation the CSR form replaced, forward and
// backward, with its exact op order: the mean accumulates rows then
// scales by 1/size; the gradient axpys each group's output row into its
// members in group order.
struct NestedAggregate {
  Matrix value;
  Matrix grad;
};

NestedAggregate NestedGroupMean(const Matrix& src, const Matrix& gout,
                                bool weighted) {
  const auto groups = NestedTestGroups();
  const auto weights = NestedTestWeights();
  NestedAggregate out{Matrix(groups.size(), src.cols()),
                      Matrix(src.rows(), src.cols())};
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    float* dst = out.value.row(g);
    const float inv = 1.0f / static_cast<float>(groups[g].size());
    for (size_t k = 0; k < groups[g].size(); ++k) {
      const size_t j = static_cast<size_t>(groups[g][k]);
      if (weighted) {
        simd::Axpy(dst, weights[g][k], src.row(j), src.cols());
        simd::Axpy(out.grad.row(j), weights[g][k], gout.row(g), src.cols());
      } else {
        simd::Accumulate(dst, src.row(j), src.cols());
        simd::Axpy(out.grad.row(j), inv, gout.row(g), src.cols());
      }
    }
    if (!weighted) {
      for (size_t c = 0; c < src.cols(); ++c) dst[c] *= inv;
    }
  }
  return out;
}

TEST(FlatSamplingTest, CsrGroupAggregationEqualsNestedForm) {
  const Matrix src = RandomMatrix(10, 13, 197);
  const Matrix gout = RandomMatrix(4, 13, 199);
  const RowGroups groups = TestGroups();
  for (const bool weighted : {false, true}) {
    Tape tape;
    const VarId in = tape.Input(src, /*requires_grad=*/true);
    const VarId agg = weighted ? tape.GroupWeightedSumRows(in, groups)
                               : tape.GroupMeanRows(in, groups);
    // d/d(agg) of sum(agg * gout) is gout: the op's backward sees it as is.
    const VarId loss = tape.SumAll(tape.Mul(agg, tape.Input(gout)));
    tape.Backward(loss);
    const NestedAggregate want = NestedGroupMean(src, gout, weighted);
    EXPECT_TRUE(BitwiseEqual(want.value, tape.value(agg)))
        << "forward, weighted " << weighted;
    EXPECT_TRUE(BitwiseEqual(want.grad, tape.grad(in)))
        << "backward, weighted " << weighted;
  }
}

// --- Fused constant-source tape ops ----------------------------------------

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
  const RowGroups groups = TestGroups();
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId mean = unfused.GroupMeanRows(in, groups);
  Tape fused;
  VarId direct = fused.GroupMeanRowsFrom(src, groups);
  EXPECT_TRUE(BitwiseEqual(unfused.value(mean), fused.value(direct)));
}

TEST(FusedAggregateTest, GroupWeightedSumRowsFromMatchesUnfused) {
  const Matrix src = RandomMatrix(10, 13, 191);
  const RowGroups groups = TestGroups();
  Tape unfused;
  VarId in = unfused.Input(src);
  VarId sum = unfused.GroupWeightedSumRows(in, groups);
  Tape fused;
  VarId direct = fused.GroupWeightedSumRowsFrom(src, groups);
  EXPECT_TRUE(BitwiseEqual(unfused.value(sum), fused.value(direct)));
}

HignnModel FitWithThreads(int threads) {
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

TEST(FusedAggregateTest, FitFusedOneVsFourThreadsBitwiseIdentical) {
  const HignnModel one = FitWithThreads(1);
  const HignnModel four = FitWithThreads(4);
  ExpectModelsIdentical(one, four);
}

TEST(FusedAggregateTest, FitScalarVsBestPathBitwiseIdentical) {
  PathGuard guard;
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  const HignnModel scalar = FitWithThreads(1);
  simd::ForcePathForTesting(simd::Best());
  const HignnModel best = FitWithThreads(1);
  ExpectModelsIdentical(scalar, best);
}

// --- Fit golden digests ------------------------------------------------------

uint64_t Fnv1a(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// hignn_bench's ModelDigest (every level's assignments and embedding
// bytes) plus each level's train-loss bits.
uint64_t FitDigest(const HignnModel& model) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const HignnLevel& level : model.levels()) {
    for (const std::vector<int32_t>* a :
         {&level.left_assignment, &level.right_assignment}) {
      hash = Fnv1a(hash, a->data(), a->size() * sizeof(int32_t));
    }
    for (const Matrix* m : {&level.left_embeddings, &level.right_embeddings}) {
      hash = Fnv1a(hash, m->data(), m->size() * sizeof(float));
    }
    hash = Fnv1a(hash, &level.train_loss, sizeof(level.train_loss));
  }
  return hash;
}

// hignn_bench's fit configuration (3 levels, fanouts {10, 5}, tanh
// updates, 10 fixed Lloyd iterations) at a size a unit test can afford.
// `ablations` also turns on the edge-weighted aggregator, output
// normalization and the concat scorer.
HignnModel GoldenFit(int threads, bool ablations) {
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  data_config.num_users = 300;
  data_config.num_items = 120;
  auto dataset = SyntheticDataset::Generate(data_config);
  EXPECT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  HignnConfig config;
  config.levels = 3;
  config.sage.dims = {16, 16};
  config.sage.fanouts = {10, 5};
  config.sage.batch_size = 128;
  config.sage.train_steps = 30;
  config.kmeans.max_iters = 10;
  config.kmeans.tol = 0.0;
  config.num_threads = threads;
  if (ablations) {
    config.sage.weighted_aggregator = true;
    config.sage.normalize_output = true;
    config.sage.scorer = EdgeScorer::kConcatMlp;
  }
  auto model = Hignn::Fit(graph, dataset.value().user_features(),
                          dataset.value().item_features(), config);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(FitGoldenTest, DigestMatchesPinnedOnEveryPathAndThreadCount) {
  // Recorded with std::tanh on glibc 2.36 before simd::Tanh, the flat-CSR
  // sampler and the 4x16 GEMM tile: those changes must not move a bit.
  // kPinnedAblations was recorded on the unfused level-0 path, which was
  // later deleted; the fused first step must hold it too.
  constexpr uint64_t kPinned = 0x01db2096b16fa512ULL;
  constexpr uint64_t kPinnedAblations = 0x88359fb28c5c718eULL;
  PathGuard guard;
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const int threads : {1, 4}) {
      EXPECT_EQ(FitDigest(GoldenFit(threads, false)), kPinned)
          << simd::PathName() << ", " << threads << " threads";
      EXPECT_EQ(FitDigest(GoldenFit(threads, true)), kPinnedAblations)
          << "ablations, " << simd::PathName() << ", " << threads
          << " threads";
    }
  }
}

// A Fit that rolls back once and then finishes. The monitor's loss
// average carries over from level 2, so level 3's first loss reads as
// divergence: the trainer, which has already drawn step 1 ahead, rolls
// back to step 0 with half the learning rate and must redraw from the
// level's seed. Recorded before the trainer drew ahead.
TEST(FitGoldenTest, RollbackOnceDigestMatchesPinned) {
  constexpr uint64_t kPinned = 0x47d6d390276428bdULL;
  PathGuard guard;
  auto dataset = SyntheticDataset::Generate(SyntheticConfig::Tiny());
  ASSERT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  HignnConfig config;
  config.levels = 3;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {4, 3};
  config.sage.train_steps = 30;
  config.min_clusters = 2;
  TrainingMonitorConfig monitor;
  monitor.divergence_factor = 1.5;
  for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
    simd::ForcePathForTesting(path);
    for (const int threads : {1, 4}) {
      config.num_threads = threads;
      obs::MetricsRegistry::Global().GetCounter("train.rollbacks").Reset();
      auto model = Hignn::Fit(graph, dataset.value().user_features(),
                              dataset.value().item_features(), config,
                              CheckpointOptions(), monitor);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      EXPECT_EQ(FitDigest(model.value()), kPinned)
          << simd::PathName() << ", " << threads << " threads";
      if (obs::Enabled()) {
        EXPECT_EQ(obs::MetricsRegistry::Global()
                      .GetCounter("train.rollbacks")
                      .value(),
                  1);
      }
    }
  }
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

// --- Whole Lloyd runs against a naive oracle ---------------------------------

// Chunk layout of RunKMeans' reductions: one chunk below 2^16 terms, else
// up to 64, merged in ascending order.
size_t OracleChunkSize(size_t work, size_t range) {
  const size_t chunks =
      work < (size_t{1} << 16) ? 1 : std::min<size_t>(range, 64);
  return (range + chunks - 1) / chunks;
}

// k-means++ with the D^2 update measured for every point and every chosen
// center, and the total summed per chunk.
Matrix NaiveKMeansPlusPlus(const Matrix& points, size_t k, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  Matrix centers(k, d);
  std::copy_n(points.row(rng.UniformInt(n)), d, centers.row(0));
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  const size_t chunk_size = OracleChunkSize(n * d, n);
  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (size_t lo = 0; lo < n; lo += chunk_size) {
      double local = 0.0;
      for (size_t i = lo; i < std::min(n, lo + chunk_size); ++i) {
        const double dist =
            simd::SquaredDistance(points.row(i), centers.row(c - 1), d);
        if (dist < min_dist[i]) min_dist[i] = dist;
        local += min_dist[i];
      }
      total += local;
    }
    size_t pick = n - 1;
    if (total > 0.0) {
      double target = rng.Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.UniformInt(n);
    }
    std::copy_n(points.row(pick), d, centers.row(c));
  }
  return centers;
}

// Lloyd as RunKMeans documents it, with every assignment pass the naive
// full scan: the same center update, shift test, reseed and final repair.
KMeansResult NaiveLloyd(const Matrix& points, const KMeansConfig& config) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = std::min<size_t>(static_cast<size_t>(config.k), n);
  Rng rng(config.seed);
  KMeansResult result;
  result.centers = NaiveKMeansPlusPlus(points, k, rng);
  for (int32_t iter = 0; iter < config.max_iters; ++iter) {
    result.iterations = iter + 1;
    result.inertia = NaiveAssign(points, result.centers, &result.assignment);
    Matrix sums(k, d);
    std::vector<int64_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const auto a = static_cast<size_t>(result.assignment[i]);
      for (size_t col = 0; col < d; ++col) sums(a, col) += points(i, col);
      ++counts[a];
    }
    const size_t shift_chunk = OracleChunkSize(k * d, k);
    double shift = 0.0;
    for (size_t lo = 0; lo < k; lo += shift_chunk) {
      double local = 0.0;
      for (size_t c = lo; c < std::min(k, lo + shift_chunk); ++c) {
        if (counts[c] == 0) continue;
        const float inv = 1.0f / static_cast<float>(counts[c]);
        for (size_t col = 0; col < d; ++col) {
          const float updated = sums(c, col) * inv;
          const double delta =
              static_cast<double>(updated) - result.centers(c, col);
          local += delta * delta;
          result.centers(c, col) = updated;
        }
      }
      shift += local;
    }
    int32_t iter_reseeds = 0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] != 0) continue;
      double best_dist = -1.0;
      size_t best_point = 0;
      for (size_t i = 0; i < n; ++i) {
        const double dist = simd::SquaredDistance(
            points.row(i),
            result.centers.row(static_cast<size_t>(result.assignment[i])), d);
        if (dist > best_dist) {
          best_dist = dist;
          best_point = i;
        }
      }
      if (best_dist <= 0.0) break;
      std::copy_n(points.row(best_point), d, result.centers.row(c));
      --counts[static_cast<size_t>(result.assignment[best_point])];
      result.assignment[best_point] = static_cast<int32_t>(c);
      counts[c] = 1;
      ++iter_reseeds;
    }
    result.reseeds += iter_reseeds;
    if (iter_reseeds == 0 && shift < config.tol) break;
  }
  result.inertia = NaiveAssign(points, result.centers, &result.assignment);
  // RepairEmptyClusters: the farthest point of the largest cluster.
  std::vector<int64_t> counts(k, 0);
  for (const int32_t a : result.assignment) ++counts[static_cast<size_t>(a)];
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) continue;
    const auto donor = static_cast<int32_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    double best_dist = -1.0;
    size_t best_point = 0;
    for (size_t i = 0; i < n; ++i) {
      if (result.assignment[i] != donor) continue;
      const double dist = simd::SquaredDistance(
          points.row(i), result.centers.row(static_cast<size_t>(donor)), d);
      if (dist > best_dist) {
        best_dist = dist;
        best_point = i;
      }
    }
    if (best_dist < 0.0) continue;
    result.assignment[best_point] = static_cast<int32_t>(c);
    std::copy_n(points.row(best_point), d, result.centers.row(c));
    --counts[static_cast<size_t>(donor)];
    ++counts[c];
    ++result.reseeds;
  }
  return result;
}

// n points around 300 modes: K = 1200 leaves ~4 centers per mode, so the
// bounds, the 64 center groups and the seeding's member lists all see
// overlapping clusters.
Matrix LloydBlobs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix modes(300, d);
  modes.FillNormal(rng);
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) {
    const float* mode = modes.row(rng.UniformInt(modes.rows()));
    for (size_t c = 0; c < d; ++c) {
      points(i, c) = 3.0f * mode[c] + static_cast<float>(rng.Normal());
    }
  }
  return points;
}

struct LloydCase {
  std::string label;
  Matrix points;
  int32_t k;
};

std::vector<LloydCase> LloydCases() {
  std::vector<LloydCase> cases;
  uint64_t seed = 801;
  for (const size_t d : {5, 16, 32, 33}) {
    cases.push_back({"blobs d=" + std::to_string(d),
                     LloydBlobs(6000, d, seed++), 1200});
  }
  // 960 distinct rows, each six times, and more centers than rows:
  // k-means++ runs out of D^2 mass and picks duplicates, whose clusters
  // empty and reseed on every pass.
  {
    const Matrix distinct = RandomMatrix(960, 3, 811);
    Matrix points(5760, 3);
    for (size_t i = 0; i < points.rows(); ++i) {
      std::copy_n(distinct.row(i % distinct.rows()), 3, points.row(i));
    }
    cases.push_back({"duplicates", std::move(points), 1200});
  }
  // The integer lattice {0..19}^2 x {0..14}: exact ties between centers.
  {
    Matrix points(6000, 3);
    for (size_t i = 0; i < points.rows(); ++i) {
      points(i, 0) = static_cast<float>(i % 20);
      points(i, 1) = static_cast<float>((i / 20) % 20);
      points(i, 2) = static_cast<float>(i / 400);
    }
    cases.push_back({"integer grid", std::move(points), 1200});
  }
  cases.push_back(
      {"offset 1e5", Shifted(LloydBlobs(6000, 32, 821), 1e5f), 1200});
  // A NaN and an Inf point: their clusters' centers turn non-finite, and
  // every later pass takes the full scan (smaller, as every pass is full).
  {
    Matrix points = LloydBlobs(2000, 16, 831);
    points(17, 3) = std::numeric_limits<float>::quiet_NaN();
    points(1500, 9) = std::numeric_limits<float>::infinity();
    cases.push_back({"non-finite points", std::move(points), 400});
  }
  return cases;
}

uint64_t FloatBytesHash(const Matrix& m) {
  return Fnv1a(0xCBF29CE484222325ULL, m.data(), m.size() * sizeof(float));
}

TEST(KMeansLloydOracleTest, RunKMeansMatchesNaiveLloydBitForBit) {
  PathGuard guard;
  for (const LloydCase& c : LloydCases()) {
    KMeansConfig config;
    config.k = c.k;
    config.max_iters = 4;
    config.tol = 0.0;
    config.seed = 97;
    const KMeansResult naive = NaiveLloyd(c.points, config);
    if (c.label == "duplicates") {
      EXPECT_GE(naive.reseeds, naive.iterations) << "reseeds on every pass";
    }
    for (const simd::IsaPath path : {simd::IsaPath::kScalar, simd::Best()}) {
      simd::ForcePathForTesting(path);
      for (const int threads : {1, 4}) {
        SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
        auto run = RunKMeans(c.points, config);
        ASSERT_TRUE(run.ok());
        const KMeansResult& got = run.value();
        const std::string where = c.label + " path=" + simd::PathName() +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(got.assignment, naive.assignment) << where;
        EXPECT_EQ(DoubleBits(got.inertia), DoubleBits(naive.inertia))
            << where;
        EXPECT_EQ(FloatBytesHash(got.centers), FloatBytesHash(naive.centers))
            << where;
        EXPECT_EQ(got.iterations, naive.iterations) << where;
        EXPECT_EQ(got.reseeds, naive.reseeds) << where;
      }
    }
  }
}

TEST(KMeansLloydOracleTest, RescannedGaugeCountsPointsTheBoundsMiss) {
  const obs::Gauge& rescanned =
      obs::MetricsRegistry::Global().GetGauge("kmeans.rescanned_per_point");
  const obs::Gauge& exact =
      obs::MetricsRegistry::Global().GetGauge("kmeans.exact_per_point");
  const Matrix points = LloydBlobs(6000, 16, 841);
  KMeansConfig config;
  config.k = 1200;
  config.tol = 0.0;
  // Early on the centers still move: some points fail the bound test, and
  // each measures its own center plus the few the bounds cannot rule out.
  config.max_iters = 2;
  ASSERT_TRUE(RunKMeans(points, config).ok());
  EXPECT_GT(rescanned.value(), 0.0);
  EXPECT_LT(rescanned.value(), 1.0);
  EXPECT_GT(exact.value(), 1.0);
  EXPECT_LT(exact.value(), 16.0);
  // By the eighth pass the run has converged: no center moves, so every
  // point's bounds hold and only its own center is measured.
  config.max_iters = 8;
  ASSERT_TRUE(RunKMeans(points, config).ok());
  EXPECT_EQ(rescanned.value(), 0.0);
  EXPECT_EQ(exact.value(), 1.0);
}

}  // namespace
}  // namespace hignn
