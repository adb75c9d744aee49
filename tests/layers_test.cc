#include "nn/layers.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "grad_check_testing.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

TEST(DenseTest, OutputShape) {
  Rng rng(1);
  Dense layer("d", 5, 3, Activation::kNone, rng);
  Tape tape;
  Matrix x(4, 5);
  x.FillNormal(rng);
  VarId y = layer.Forward(tape, tape.Input(x), false);
  EXPECT_EQ(tape.value(y).rows(), 4u);
  EXPECT_EQ(tape.value(y).cols(), 3u);
}

TEST(DenseTest, NoBiasIsPureLinear) {
  Rng rng(2);
  Dense layer("m", 3, 2, Activation::kNone, rng, /*use_bias=*/false);
  EXPECT_EQ(layer.Params().size(), 1u);  // weight only
  Tape tape;
  Matrix zero(1, 3);
  VarId y = layer.Forward(tape, tape.Input(zero), false);
  EXPECT_FLOAT_EQ(tape.value(y)(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(tape.value(y)(0, 1), 0.0f);
}

TEST(DenseTest, GradientsFlowToParameters) {
  Rng rng(3);
  Dense layer("d", 4, 2, Activation::kTanh, rng);
  Tape tape;
  Matrix x(3, 4);
  x.FillNormal(rng);
  VarId y = layer.Forward(tape, tape.Input(x), true);
  VarId loss = tape.MeanAll(tape.Mul(y, y));
  tape.Backward(loss);
  layer.AccumulateGrads(tape);
  auto params = layer.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_GT(params[0]->grad.SquaredNorm(), 0.0);
  EXPECT_GT(params[1]->grad.SquaredNorm(), 0.0);
}

TEST(DenseTest, WeightGradientMatchesFiniteDifference) {
  Rng rng(4);
  Matrix x(3, 4);
  x.FillNormal(rng);
  Dense layer("d", 4, 2, Activation::kSigmoid, rng);
  Parameter* weight = layer.Params()[0];

  auto loss_at = [&](const Matrix& w) {
    weight->value = w;
    Tape tape;
    VarId y = layer.Forward(tape, tape.Input(x), false);
    VarId loss = tape.MeanAll(tape.Mul(y, y));
    return static_cast<double>(tape.value(loss)(0, 0));
  };

  const Matrix w0 = weight->value;
  {
    Tape tape;
    VarId y = layer.Forward(tape, tape.Input(x), true);
    VarId loss = tape.MeanAll(tape.Mul(y, y));
    tape.Backward(loss);
    weight->grad.Fill(0.0f);
    layer.AccumulateGrads(tape);
  }
  const GradCheckResult check = CheckGradient(loss_at, w0, weight->grad);
  EXPECT_TRUE(check.passed) << check.max_abs_error;
}

TEST(MlpTest, ChainsDimensions) {
  Rng rng(5);
  Mlp mlp("m", {8, 6, 4, 1}, Activation::kLeakyRelu, Activation::kNone, rng);
  EXPECT_EQ(mlp.in_dim(), 8u);
  EXPECT_EQ(mlp.out_dim(), 1u);
  EXPECT_EQ(mlp.Params().size(), 6u);  // 3 layers x (W, b)
  Tape tape;
  Matrix x(2, 8);
  x.FillNormal(rng);
  VarId y = mlp.Forward(tape, tape.Input(x), false);
  EXPECT_EQ(tape.value(y).rows(), 2u);
  EXPECT_EQ(tape.value(y).cols(), 1u);
}

// Training an MLP with Adam must solve XOR — a full end-to-end check of
// layers, tape, loss and optimizer together.
TEST(MlpTest, LearnsXor) {
  Rng rng(6);
  Mlp mlp("xor", {2, 8, 1}, Activation::kTanh, Activation::kNone, rng);
  Adam optimizer(0.05f);

  Matrix x(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<float> labels = {0, 1, 1, 0};

  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    Tape tape;
    VarId logits = mlp.Forward(tape, tape.Input(x), true);
    VarId loss = tape.BceWithLogits(logits, labels);
    final_loss = tape.value(loss)(0, 0);
    tape.Backward(loss);
    mlp.AccumulateGrads(tape);
    optimizer.Step(mlp.Params());
  }
  EXPECT_LT(final_loss, 0.05);

  Tape tape;
  VarId probs = tape.Sigmoid(mlp.Forward(tape, tape.Input(x), false));
  const Matrix& p = tape.value(probs);
  EXPECT_LT(p(0, 0), 0.3f);
  EXPECT_GT(p(1, 0), 0.7f);
  EXPECT_GT(p(2, 0), 0.7f);
  EXPECT_LT(p(3, 0), 0.3f);
}

// The const tape-free forward must reproduce the recorded forward bit for
// bit: every activation, as hidden and output layer, with non-zero biases,
// at row counts around the GEMM row tile and beyond the pool's serial
// cutoff (so the tape's MatMul fans out while the const path does not).
TEST(MlpTest, ConstForwardIsBitwiseEqualToTapeForward) {
  SetGlobalThreadPoolThreads(4);
  for (const Activation act :
       {Activation::kNone, Activation::kSigmoid, Activation::kTanh,
        Activation::kRelu, Activation::kLeakyRelu}) {
    Rng rng(7 + static_cast<uint64_t>(act));
    Mlp mlp("p", {24, 40, 17, 3}, act, act, rng);
    for (Parameter* p : mlp.Params()) p->value.FillNormal(rng, 0.5f);
    for (const size_t rows : {0u, 1u, 31u, 32u, 4097u}) {
      Matrix x(rows, 24);
      x.FillNormal(rng);
      Tape tape;
      const Matrix& recorded =
          tape.value(tape.Sigmoid(mlp.Forward(tape, tape.Input(x), false)));
      Matrix direct = mlp.Forward(x);
      SigmoidInPlace(direct);
      ASSERT_EQ(direct.rows(), recorded.rows());
      ASSERT_EQ(direct.cols(), recorded.cols());
      if (rows == 0) continue;
      EXPECT_EQ(0, std::memcmp(direct.data(), recorded.data(),
                               direct.size() * sizeof(float)))
          << "activation " << static_cast<int>(act) << ", " << rows
          << " rows";
    }
  }
  SetGlobalThreadPoolThreads(0);
}

TEST(AdamTest, HandlesSparseScaleDifferences) {
  // One dimension has a 100x larger gradient scale; Adam normalizes.
  Parameter w("w", Matrix(1, 2));
  Matrix target(1, 2, {1.0f, 1.0f});
  Adam adam(0.05f);
  for (int step = 0; step < 500; ++step) {
    w.grad(0, 0) = 200.0f * (w.value(0, 0) - target(0, 0));
    w.grad(0, 1) = 2.0f * (w.value(0, 1) - target(0, 1));
    adam.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 1.0f, 0.02f);
  EXPECT_NEAR(w.value(0, 1), 1.0f, 0.02f);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Parameter w("w", Matrix(1, 2));
  w.grad.Fill(1.0f);
  Adam adam(0.1f);
  adam.Step({&w});
  EXPECT_DOUBLE_EQ(w.grad.SquaredNorm(), 0.0);
}

// Adam normalizes the step size per element, so clipping shows in the
// first moment it accumulates: m_1 = (1 - beta1) * clipped gradient.
TEST(OptimizerTest, ClipNormBoundsUpdate) {
  Parameter w("w", Matrix(1, 2));
  w.grad(0, 0) = 300.0f;
  w.grad(0, 1) = 400.0f;  // norm 500
  Adam adam(1.0f);
  adam.set_clip_norm(5.0f);
  adam.Step({&w});
  const OptimizerState state = adam.ExportState({&w});
  ASSERT_EQ(state.tensors.size(), 2u);
  EXPECT_NEAR(std::sqrt(state.tensors[0].SquaredNorm()), 0.1 * 5.0, 1e-5);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Parameter w("w", Matrix(1, 1, {10.0f}));
  Adam adam(0.1f);
  adam.set_weight_decay(0.5f);
  w.grad.Fill(0.0f);
  adam.Step({&w});
  // grad += decay * w = 5, and Adam's first step moves lr against it.
  const OptimizerState state = adam.ExportState({&w});
  EXPECT_NEAR(state.tensors[0](0, 0), 0.1f * 5.0f, 1e-6);
  EXPECT_NEAR(w.value(0, 0), 9.9f, 1e-5);
}

}  // namespace
}  // namespace hignn
