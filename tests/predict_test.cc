#include "predict/experiment.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/tape.h"
#include "predict/cvr_model.h"
#include "predict/features.h"

namespace hignn {
namespace {

class PredictFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig data_config = SyntheticConfig::Tiny();
    data_config.num_users = 400;
    data_config.num_items = 160;
    data_config.num_days = 6;
    data_config.mean_clicks_per_user_day = 3.0;
    dataset_ = new SyntheticDataset(
        SyntheticDataset::Generate(data_config).ValueOrDie());

    CvrExperimentConfig config;
    config.hignn.levels = 2;
    config.hignn.sage.dims = {8, 8};
    config.hignn.sage.fanouts = {5, 3};
    config.hignn.sage.train_steps = 60;
    config.hignn.min_clusters = 2;
    config.cvr.hidden = {32, 16};
    config.cvr.epochs = 3;
    config.cvr.batch_size = 256;
    experiment_ = new CvrExperiment(
        CvrExperiment::Prepare(*dataset_, config).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete experiment_;
    delete dataset_;
    experiment_ = nullptr;
    dataset_ = nullptr;
  }

  static SyntheticDataset* dataset_;
  static CvrExperiment* experiment_;
};

SyntheticDataset* PredictFixture::dataset_ = nullptr;
CvrExperiment* PredictFixture::experiment_ = nullptr;

// ------------------------------------------------------ CvrFeatureBuilder --

TEST_F(PredictFixture, FeatureDimsPerSpec) {
  const int32_t d = experiment_->model().level_dim();
  const int32_t base = 9 + 3 + 5;  // profile + user stats + item stats

  auto dim_of = [&](const FeatureSpec& spec) {
    return CvrFeatureBuilder::Create(dataset_, &experiment_->model(), spec)
        .ValueOrDie()
        .dim();
  };
  EXPECT_EQ(dim_of(FeatureSpec::Din()), base);
  EXPECT_EQ(dim_of(FeatureSpec::Ge()), base + 2 * d + 1);
  EXPECT_EQ(dim_of(FeatureSpec::HupOnly(2)), base + 2 * d);
  EXPECT_EQ(dim_of(FeatureSpec::HiaOnly(2)), base + 2 * d);
  EXPECT_EQ(dim_of(FeatureSpec::HiGnn(2)), base + 4 * d + 2);
  EXPECT_EQ(dim_of(FeatureSpec::Cgnn()), base + 2 * d);
}

TEST_F(PredictFixture, CreateValidatesSpec) {
  // Hierarchical features without a model are rejected.
  EXPECT_FALSE(
      CvrFeatureBuilder::Create(dataset_, nullptr, FeatureSpec::Ge()).ok());
  // DIN works without a model.
  EXPECT_TRUE(
      CvrFeatureBuilder::Create(dataset_, nullptr, FeatureSpec::Din()).ok());
  // More levels than the model has.
  EXPECT_FALSE(CvrFeatureBuilder::Create(dataset_, &experiment_->model(),
                                         FeatureSpec::HiGnn(7))
                   .ok());
  EXPECT_FALSE(CvrFeatureBuilder::Create(nullptr, nullptr,
                                         FeatureSpec::Din())
                   .ok());
}

TEST_F(PredictFixture, BatchRowsMatchSamples) {
  auto features = CvrFeatureBuilder::Create(dataset_, &experiment_->model(),
                                            FeatureSpec::HiGnn(2))
                      .ValueOrDie();
  const auto& samples = experiment_->samples().train;
  const Matrix batch = features.BuildBatch(samples, 2, 7);
  EXPECT_EQ(batch.rows(), 5u);
  EXPECT_EQ(batch.cols(), static_cast<size_t>(features.dim()));
  // Same sample -> identical rows regardless of batch position.
  const Matrix full = features.BuildAll(samples);
  for (size_t c = 0; c < batch.cols(); ++c) {
    EXPECT_FLOAT_EQ(batch(0, c), full(2, c));
  }
}

TEST_F(PredictFixture, MatchFeatureIsDotProduct) {
  FeatureSpec spec = FeatureSpec::HiGnn(1);
  auto features =
      CvrFeatureBuilder::Create(dataset_, &experiment_->model(), spec)
          .ValueOrDie();
  const LabeledSample sample{3, 5, 0.0f};
  const Matrix row = features.BuildBatch({sample}, 0, 1);
  const int32_t d = experiment_->model().level_dim();
  double expected = 0.0;
  for (int32_t c = 0; c < d; ++c) {
    expected += static_cast<double>(row(0, static_cast<size_t>(c))) *
                row(0, static_cast<size_t>(d + c));
  }
  EXPECT_NEAR(row(0, static_cast<size_t>(2 * d)), expected, 1e-3);
}

// --------------------------------------------------------------- CvrModel --

TEST_F(PredictFixture, TrainingBeatsChance) {
  auto result = experiment_->RunVariant("HiGNN", FeatureSpec::HiGnn(2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().test_auc, 0.55);
  EXPECT_LT(result.value().train_loss, 0.7);
}

TEST_F(PredictFixture, AllPaperVariantsRun) {
  for (const auto& [name, spec] : CvrExperiment::PaperVariants(2)) {
    auto result = experiment_->RunVariant(name, spec);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_GT(result.value().test_auc, 0.5) << name;
    EXPECT_LT(result.value().test_auc, 1.0) << name;
  }
}

TEST_F(PredictFixture, PredictionsAreProbabilities) {
  auto features = CvrFeatureBuilder::Create(dataset_, nullptr,
                                            FeatureSpec::Din())
                      .ValueOrDie();
  auto model = CvrModel::Create(features.dim(), CvrModelConfig{}).ValueOrDie();
  ASSERT_TRUE(model.Train(features, experiment_->samples().train).ok());
  auto predictions = model.Predict(features, experiment_->samples().test);
  ASSERT_TRUE(predictions.ok());
  ASSERT_EQ(predictions.value().size(), experiment_->samples().test.size());
  for (float p : predictions.value()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(CvrModelTest, CreateValidatesConfig) {
  CvrModelConfig config;
  EXPECT_FALSE(CvrModel::Create(0, config).ok());
  config.hidden.clear();
  EXPECT_FALSE(CvrModel::Create(8, config).ok());
  config = CvrModelConfig{};
  config.hidden = {0};
  EXPECT_FALSE(CvrModel::Create(8, config).ok());
  config = CvrModelConfig{};
  config.epochs = 0;
  EXPECT_FALSE(CvrModel::Create(8, config).ok());
}

TEST(CvrModelTest, RejectsDimMismatch) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  auto features =
      CvrFeatureBuilder::Create(&dataset, nullptr, FeatureSpec::Din())
          .ValueOrDie();
  auto model =
      CvrModel::Create(features.dim() + 1, CvrModelConfig{}).ValueOrDie();
  const SampleSet samples = BuildSamples(dataset, false, 1);
  EXPECT_FALSE(model.Train(features, samples.train).ok());
  EXPECT_FALSE(model.Predict(features, samples.test).ok());
}

// PredictRows is the tape-free forward; it must equal the tape forward
// of the same network (Mlp::Forward on a Tape, then Sigmoid) bit for bit.
TEST(CvrModelTest, PredictRowsIsBitwiseEqualToTapeForward) {
  CvrModelConfig config;
  config.hidden = {32, 16};
  config.seed = 77;
  const CvrModel model = CvrModel::Create(29, config).ValueOrDie();
  Rng init(config.seed);
  Mlp reference("cvr", {29, 32, 16, 1}, Activation::kLeakyRelu,
                Activation::kNone, init);
  Rng rng(5);
  for (const size_t rows : {0u, 1u, 31u, 32u, 4097u}) {
    Matrix x(rows, 29);
    x.FillNormal(rng);
    Tape tape;
    const Matrix& recorded = tape.value(
        tape.Sigmoid(reference.Forward(tape, tape.Input(x), false)));
    const std::vector<float> direct = model.PredictRows(x).ValueOrDie();
    ASSERT_EQ(direct.size(), rows);
    ASSERT_EQ(recorded.size(), rows);
    if (rows == 0) continue;
    EXPECT_EQ(0, std::memcmp(direct.data(), recorded.data(),
                             rows * sizeof(float)))
        << rows << " rows";
  }
}

TEST(CvrModelTest, MaxTrainSamplesCapsEpoch) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  auto features =
      CvrFeatureBuilder::Create(&dataset, nullptr, FeatureSpec::Din())
          .ValueOrDie();
  CvrModelConfig config;
  config.hidden = {8};
  config.epochs = 1;
  config.max_train_samples = 32;
  config.batch_size = 16;
  auto model = CvrModel::Create(features.dim(), config).ValueOrDie();
  const SampleSet samples = BuildSamples(dataset, false, 1);
  auto loss = model.Train(features, samples.train);
  ASSERT_TRUE(loss.ok());
  EXPECT_TRUE(std::isfinite(loss.value()));
}

}  // namespace
}  // namespace hignn
