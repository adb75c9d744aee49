#include "nn/matrix.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hignn {
namespace {

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(MatrixTest, FromDataRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(m(0, 0), 1);
  EXPECT_FLOAT_EQ(m(0, 2), 3);
  EXPECT_FLOAT_EQ(m(1, 0), 4);
  EXPECT_FLOAT_EQ(m(1, 2), 6);
}

TEST(MatrixTest, FillAndScale) {
  Matrix m(2, 2);
  m.Fill(3.0f);
  m.Scale(2.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 6.0f);
  EXPECT_FLOAT_EQ(m.Sum(), 24.0);
}

TEST(MatrixTest, AddAndAxpy) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.Add(b);
  EXPECT_FLOAT_EQ(a(0, 2), 33);
  a.Axpy(-0.5f, b);
  EXPECT_FLOAT_EQ(a(0, 0), 6);
}

TEST(MatrixTest, RowAccessors) {
  Matrix m(2, 2, {1, 2, 3, 4});
  m.SetRow(0, {9, 8});
  EXPECT_FLOAT_EQ(m(0, 1), 8);
  const float* row = m.row(1);
  EXPECT_FLOAT_EQ(row[0], 3);
  EXPECT_FLOAT_EQ(row[1], 4);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3, {3, -4, 0});
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
}

TEST(MatrixTest, FillNormalStatistics) {
  Rng rng(3);
  Matrix m(100, 100);
  m.FillNormal(rng, 2.0f);
  EXPECT_NEAR(m.Sum() / m.size(), 0.0, 0.05);
  EXPECT_NEAR(m.SquaredNorm() / m.size(), 4.0, 0.15);
}

TEST(MatrixTest, FillUniformRange) {
  Rng rng(5);
  Matrix m(50, 50);
  m.FillUniform(rng, -1.0f, 1.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -1.0f);
    EXPECT_LE(m.data()[i], 1.0f);
  }
  EXPECT_NEAR(m.Sum() / m.size(), 0.0, 0.05);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(9);
  Matrix a(4, 6);
  Matrix b(6, 5);
  a.FillNormal(rng);
  b.FillNormal(rng);
  const Matrix reference = MatMul(a, b);
  // a * b == a * (b^T)^T  via MatMulBT.
  EXPECT_TRUE(AllClose(MatMulBT(a, Transpose(b)), reference, 1e-4f));
  // a * b == (a^T)^T * b via MatMulAT.
  EXPECT_TRUE(AllClose(MatMulAT(Transpose(a), b), reference, 1e-4f));
}

TEST(MatMulTest, IdentityPreserves) {
  Matrix eye(3, 3);
  for (size_t i = 0; i < 3; ++i) eye(i, i) = 1.0f;
  Matrix m(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(AllClose(MatMul(eye, m), m));
  EXPECT_TRUE(AllClose(MatMul(m, eye), m));
}

TEST(TransposeTest, Involution) {
  Rng rng(15);
  Matrix m(3, 7);
  m.FillNormal(rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(m)), m));
}

TEST(RowOpsTest, DistanceAndDot) {
  Matrix a(2, 2, {0, 0, 3, 4});
  EXPECT_DOUBLE_EQ(RowSquaredDistance(a, 0, a, 1), 25.0);
  EXPECT_DOUBLE_EQ(RowDot(a, 1, a, 1), 25.0);
  EXPECT_DOUBLE_EQ(RowDot(a, 0, a, 1), 0.0);
}

TEST(AllCloseTest, DetectsShapeAndValueDiffs) {
  Matrix a(1, 2, {1, 2});
  Matrix b(2, 1, {1, 2});
  Matrix c(1, 2, {1, 2.1f});
  EXPECT_FALSE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, c, 0.05f));
  EXPECT_TRUE(AllClose(a, c, 0.2f));
}

}  // namespace
}  // namespace hignn
