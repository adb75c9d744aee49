#include "nn/tape.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "grad_check_testing.h"
#include "nn/matrix.h"
#include "row_groups_testing.h"
#include "util/rng.h"

namespace hignn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f);
  return m;
}

// Builds a scalar loss from a single differentiable input `point` via
// `graph` and checks the tape gradient against finite differences.
void CheckOpGradient(
    const Matrix& point,
    const std::function<VarId(Tape&, VarId)>& graph_builder) {
  auto loss_fn = [&](const Matrix& x) {
    Tape tape;
    VarId input = tape.Input(x, true);
    VarId loss = graph_builder(tape, input);
    return static_cast<double>(tape.value(loss)(0, 0));
  };

  Tape tape;
  VarId input = tape.Input(point, true);
  VarId loss = graph_builder(tape, input);
  tape.Backward(loss);
  const GradCheckResult result =
      CheckGradient(loss_fn, point, tape.grad(input));
  EXPECT_TRUE(result.passed)
      << "max_abs=" << result.max_abs_error
      << " max_rel=" << result.max_rel_error;
}

TEST(TapeTest, InputHoldsValue) {
  Tape tape;
  Matrix m = RandomMatrix(3, 4, 1);
  VarId id = tape.Input(m);
  EXPECT_TRUE(AllClose(tape.value(id), m));
}

TEST(TapeTest, MatMulForward) {
  Tape tape;
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  VarId c = tape.MatMul(tape.Input(a), tape.Input(b));
  EXPECT_FLOAT_EQ(tape.value(c)(0, 0), 19);
  EXPECT_FLOAT_EQ(tape.value(c)(0, 1), 22);
  EXPECT_FLOAT_EQ(tape.value(c)(1, 0), 43);
  EXPECT_FLOAT_EQ(tape.value(c)(1, 1), 50);
}

TEST(TapeTest, MatMulGradientLeft) {
  const Matrix b = RandomMatrix(4, 3, 7);
  CheckOpGradient(RandomMatrix(2, 4, 3), [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.MatMul(x, tape.Input(b)));
  });
}

TEST(TapeTest, MatMulGradientRight) {
  const Matrix a = RandomMatrix(3, 4, 11);
  CheckOpGradient(RandomMatrix(4, 2, 5), [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.MatMul(tape.Input(a), x));
  });
}

TEST(TapeTest, MulGradient) {
  const Matrix b = RandomMatrix(3, 3, 29);
  CheckOpGradient(RandomMatrix(3, 3, 31), [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.Mul(x, tape.Input(b)));
  });
}

TEST(TapeTest, AddRowBroadcastGradientOnBias) {
  const Matrix a = RandomMatrix(4, 3, 37);
  CheckOpGradient(RandomMatrix(1, 3, 41), [&](Tape& tape, VarId bias) {
    return tape.MeanAll(tape.AddRowBroadcast(tape.Input(a), bias));
  });
}

TEST(TapeTest, ConcatColsGradient) {
  const Matrix b = RandomMatrix(3, 2, 47);
  CheckOpGradient(RandomMatrix(3, 4, 53), [&](Tape& tape, VarId x) {
    // Square so both halves contribute nonlinearly.
    VarId cat = tape.ConcatCols(x, tape.Input(b));
    return tape.MeanAll(tape.Mul(cat, cat));
  });
}

TEST(TapeTest, ConcatColsNForwardLayout) {
  Tape tape;
  Matrix a(1, 2, {1, 2});
  Matrix b(1, 1, {3});
  Matrix c(1, 2, {4, 5});
  VarId cat = tape.ConcatColsN({tape.Input(a), tape.Input(b), tape.Input(c)});
  const Matrix& v = tape.value(cat);
  ASSERT_EQ(v.cols(), 5u);
  EXPECT_FLOAT_EQ(v(0, 0), 1);
  EXPECT_FLOAT_EQ(v(0, 2), 3);
  EXPECT_FLOAT_EQ(v(0, 4), 5);
}

TEST(TapeTest, GatherRowsForward) {
  Tape tape;
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  VarId g = tape.GatherRows(tape.Input(a), {2, 0, 2});
  const Matrix& v = tape.value(g);
  ASSERT_EQ(v.rows(), 3u);
  EXPECT_FLOAT_EQ(v(0, 0), 5);
  EXPECT_FLOAT_EQ(v(1, 0), 1);
  EXPECT_FLOAT_EQ(v(2, 1), 6);
}

TEST(TapeTest, GatherRowsGradientAccumulatesDuplicates) {
  CheckOpGradient(RandomMatrix(3, 2, 59), [&](Tape& tape, VarId x) {
    VarId g = tape.GatherRows(x, {0, 0, 2});
    return tape.MeanAll(tape.Mul(g, g));
  });
}

TEST(TapeTest, GroupMeanRowsForward) {
  Tape tape;
  Matrix a(3, 2, {2, 4, 6, 8, 10, 12});
  const RowGroups groups = RowGroupsOf({{0, 1}, {}, {2}});
  VarId g = tape.GroupMeanRows(tape.Input(a), groups);
  const Matrix& v = tape.value(g);
  ASSERT_EQ(v.rows(), 3u);
  EXPECT_FLOAT_EQ(v(0, 0), 4);   // mean of 2, 6
  EXPECT_FLOAT_EQ(v(1, 0), 0);   // empty group -> zero row
  EXPECT_FLOAT_EQ(v(2, 1), 12);
}

TEST(TapeTest, GroupMeanRowsGradient) {
  const RowGroups groups = RowGroupsOf({{0, 1, 2}, {3, 3}, {}});
  CheckOpGradient(RandomMatrix(4, 3, 61), [&](Tape& tape, VarId x) {
    VarId g = tape.GroupMeanRows(x, groups);
    return tape.MeanAll(tape.Mul(g, g));
  });
}

TEST(TapeTest, GroupWeightedSumRowsForwardAndGradient) {
  {
    Tape tape;
    Matrix a(2, 1, {10, 20});
    const RowGroups groups = RowGroupsOf({{0, 1}}, {{0.25f, 0.75f}});
    VarId g = tape.GroupWeightedSumRows(tape.Input(a), groups);
    EXPECT_FLOAT_EQ(tape.value(g)(0, 0), 17.5f);
  }
  const RowGroups groups = RowGroupsOf({{0, 1}, {2}}, {{0.3f, 0.7f}, {1.0f}});
  CheckOpGradient(RandomMatrix(3, 2, 67), [&](Tape& tape, VarId x) {
    VarId g = tape.GroupWeightedSumRows(x, groups);
    return tape.MeanAll(tape.Mul(g, g));
  });
}

TEST(TapeTest, SigmoidGradient) {
  CheckOpGradient(RandomMatrix(3, 3, 71), [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.Sigmoid(x));
  });
}

TEST(TapeTest, TanhGradient) {
  CheckOpGradient(RandomMatrix(3, 3, 73), [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.Tanh(x));
  });
}

TEST(TapeTest, LeakyReluGradient) {
  // Offset away from zero to avoid kinks in the finite difference.
  Matrix point = RandomMatrix(3, 3, 79);
  for (size_t i = 0; i < point.size(); ++i) {
    if (std::fabs(point.data()[i]) < 0.1f) point.data()[i] = 0.5f;
  }
  CheckOpGradient(point, [&](Tape& tape, VarId x) {
    return tape.MeanAll(tape.LeakyRelu(x, 0.1f));
  });
}

TEST(TapeTest, ReluForward) {
  Tape tape;
  Matrix a(1, 3, {-1, 0, 2});
  const Matrix& v = tape.value(tape.Relu(tape.Input(a)));
  EXPECT_FLOAT_EQ(v(0, 0), 0);
  EXPECT_FLOAT_EQ(v(0, 2), 2);
}

TEST(TapeTest, RowL2NormalizeForward) {
  Tape tape;
  Matrix a(2, 2, {3, 4, 0, 0});
  const Matrix& v = tape.value(tape.RowL2Normalize(tape.Input(a)));
  EXPECT_NEAR(v(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(v(0, 1), 0.8f, 1e-6);
  EXPECT_FLOAT_EQ(v(1, 0), 0.0f);  // zero row passes through
}

TEST(TapeTest, RowL2NormalizeGradient) {
  const Matrix b = RandomMatrix(3, 4, 83);
  CheckOpGradient(RandomMatrix(3, 4, 89), [&](Tape& tape, VarId x) {
    VarId y = tape.RowL2Normalize(x);
    return tape.MeanAll(tape.Mul(y, tape.Input(b)));
  });
}

TEST(TapeTest, SumAllAndMeanAll) {
  Tape tape;
  Matrix a(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(tape.value(tape.SumAll(tape.Input(a)))(0, 0), 10);
  EXPECT_FLOAT_EQ(tape.value(tape.MeanAll(tape.Input(a)))(0, 0), 2.5f);
}

TEST(TapeTest, BceWithLogitsMatchesClosedForm) {
  Tape tape;
  Matrix logits(2, 1, {0.0f, 100.0f});
  VarId loss = tape.BceWithLogits(tape.Input(logits), {1.0f, 1.0f});
  // -log(0.5) averaged with ~0.
  EXPECT_NEAR(tape.value(loss)(0, 0), std::log(2.0) / 2.0, 1e-5);
}

TEST(TapeTest, BceWithLogitsStableAtExtremeLogits) {
  Tape tape;
  Matrix logits(2, 1, {-500.0f, 500.0f});
  VarId loss = tape.BceWithLogits(tape.Input(logits), {0.0f, 1.0f});
  EXPECT_NEAR(tape.value(loss)(0, 0), 0.0, 1e-6);
  Tape tape2;
  VarId bad = tape2.BceWithLogits(tape2.Input(logits), {1.0f, 0.0f});
  EXPECT_NEAR(tape2.value(bad)(0, 0), 500.0, 1e-3);  // finite, not inf/nan
}

TEST(TapeTest, BceWithLogitsGradient) {
  CheckOpGradient(RandomMatrix(5, 1, 97), [&](Tape& tape, VarId x) {
    return tape.BceWithLogits(x, {1, 0, 1, 0, 1});
  });
}

TEST(TapeTest, BceWithLogitsWeightedGradient) {
  CheckOpGradient(RandomMatrix(4, 1, 101), [&](Tape& tape, VarId x) {
    return tape.BceWithLogits(x, {1, 0, 0, 1}, {1.0f, 3.0f, 3.0f, 0.5f});
  });
}

TEST(TapeTest, CompositeGraphGradient) {
  // A miniature GraphSAGE-shaped computation: gather + group-mean +
  // matmul + concat + nonlinearity + normalize + BCE.
  const Matrix w = RandomMatrix(6, 4, 103);
  const Matrix w2 = RandomMatrix(8, 1, 107);
  const RowGroups groups = RowGroupsOf({{0, 1}, {2, 3, 4}, {1, 4}});
  CheckOpGradient(RandomMatrix(5, 3, 109), [&](Tape& tape, VarId x) {
    VarId agg = tape.GroupMeanRows(x, groups);
    VarId self = tape.GatherRows(x, {0, 2, 4});
    VarId cat = tape.ConcatCols(self, agg);  // 3 x 6
    VarId h = tape.LeakyRelu(tape.MatMul(cat, tape.Input(w)), 0.2f);
    VarId z = tape.RowL2Normalize(h);        // 3 x 4
    VarId pairs = tape.ConcatCols(z, z);     // 3 x 8
    VarId logits = tape.MatMul(pairs, tape.Input(w2));
    return tape.BceWithLogits(logits, {1, 0, 1});
  });
}

TEST(TapeDeathTest, DoubleBackwardAborts) {
  EXPECT_DEATH(
      {
        Tape tape;
        Matrix one(1, 1, {2.0f});
        VarId x = tape.Input(one, true);
        VarId loss = tape.MeanAll(tape.Mul(x, x));
        tape.Backward(loss);
        tape.Backward(loss);
      },
      "Check failed");
}

TEST(TapeDeathTest, BackwardRequiresScalarRoot) {
  EXPECT_DEATH(
      {
        Tape tape;
        Matrix m(2, 2);
        VarId x = tape.Input(m, true);
        tape.Backward(x);  // 2x2 root is invalid
      },
      "Check failed");
}

TEST(TapeDeathTest, GatherRowsRejectsOutOfRange) {
  EXPECT_DEATH(
      {
        Tape tape;
        Matrix m(2, 2);
        tape.GatherRows(tape.Input(m), {0, 5});
      },
      "Check failed");
}

TEST(TapeTest, NoGradForConstLeaf) {
  Tape tape;
  Matrix a = RandomMatrix(2, 2, 113);
  VarId x = tape.Input(a, false);
  VarId loss = tape.MeanAll(tape.Mul(x, x));
  tape.Backward(loss);
  EXPECT_TRUE(tape.grad(x).empty());
}

}  // namespace
}  // namespace hignn
