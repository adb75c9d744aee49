#include "core/serialization.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "matrix_io_testing.h"
#include "util/rng.h"

namespace hignn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializationTest, MatrixRoundTrip) {
  Rng rng(3);
  Matrix original(7, 5);
  original.FillNormal(rng);
  const std::string path = TempPath("matrix.bin");
  ASSERT_TRUE(SaveMatrix(original, path).ok());
  auto loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(AllClose(loaded.value(), original, 0.0f));
}

TEST(SerializationTest, EmptyMatrixRoundTrip) {
  const std::string path = TempPath("empty_matrix.bin");
  ASSERT_TRUE(SaveMatrix(Matrix(), path).ok());
  auto loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows(), 0u);
  EXPECT_EQ(loaded.value().cols(), 0u);
}

TEST(SerializationTest, HignnModelRoundTrip) {
  // Build a small real model so all fields are exercised.
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {4, 3};
  config.sage.train_steps = 10;
  config.min_clusters = 2;
  auto model = Hignn::Fit(dataset.BuildTrainGraph(), dataset.user_features(),
                          dataset.item_features(), config)
                   .ValueOrDie();

  const std::string path = TempPath("model.hgnn");
  ASSERT_TRUE(SaveHignnModel(model, path).ok());
  auto loaded = LoadHignnModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded.value().num_levels(), model.num_levels());
  EXPECT_EQ(loaded.value().level_dim(), model.level_dim());
  EXPECT_TRUE(AllClose(loaded.value().AllHierarchicalLeft(),
                       model.AllHierarchicalLeft(), 0.0f));
  EXPECT_TRUE(AllClose(loaded.value().AllHierarchicalRight(),
                       model.AllHierarchicalRight(), 0.0f));
  for (int32_t u = 0; u < dataset.num_users(); u += 37) {
    EXPECT_EQ(loaded.value().LeftClusterAt(u, 2), model.LeftClusterAt(u, 2));
  }
  // A level keeps its graph's shape, not its edges.
  for (int32_t l = 0; l < model.num_levels(); ++l) {
    const HignnLevel& a = loaded.value().levels()[static_cast<size_t>(l)];
    const HignnLevel& b = model.levels()[static_cast<size_t>(l)];
    EXPECT_EQ(a.graph, b.graph) << "level " << l + 1;
    EXPECT_GT(a.graph.num_edges, 0) << "level " << l + 1;
    EXPECT_EQ(a.num_left_clusters, b.num_left_clusters);
    EXPECT_EQ(a.num_right_clusters, b.num_right_clusters);
    EXPECT_EQ(a.train_loss, b.train_loss);
  }
}

TEST(SerializationTest, RejectsWrongTag) {
  Rng rng(5);
  Matrix m(2, 2);
  m.FillNormal(rng);
  const std::string path = TempPath("tagged.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  EXPECT_FALSE(LoadHignnModel(path).ok());  // matrix tag != model tag
}

TEST(SerializationTest, RejectsGarbageAndMissingFiles) {
  EXPECT_FALSE(LoadMatrix(TempPath("does_not_exist.bin")).ok());
  const std::string path = TempPath("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a hignn artifact";
  }
  EXPECT_FALSE(LoadMatrix(path).ok());
}

TEST(SerializationTest, RejectsTruncatedFile) {
  Rng rng(7);
  Matrix m(30, 30);
  m.FillNormal(rng);
  const std::string path = TempPath("full.bin");
  ASSERT_TRUE(SaveMatrix(m, path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = TempPath("truncated.bin");
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_FALSE(LoadMatrix(cut).ok());
}

TEST(SerializationTest, TsvRoundTrip) {
  BipartiteGraphBuilder builder(3, 3);
  ASSERT_TRUE(builder.AddEdge(0, 2, 1.5f).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0, 3.0f).ok());
  const BipartiteGraph original = builder.Build();
  const std::string path = TempPath("graph.tsv");
  ASSERT_TRUE(SaveBipartiteGraphTsv(original, path).ok());
  auto loaded = LoadBipartiteGraphTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_edges(), 2);
  EXPECT_DOUBLE_EQ(loaded.value().TotalWeight(), 4.5);
}

TEST(SerializationTest, TsvParsesCommentsAndDefaults) {
  const std::string path = TempPath("hand.tsv");
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "0\t1\n";          // default weight 1
    out << "  2\t0\t2.5  \n";  // padded
    out << "\n";               // blank
  }
  auto loaded = LoadBipartiteGraphTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_left(), 3);
  EXPECT_EQ(loaded.value().num_right(), 2);
  EXPECT_DOUBLE_EQ(loaded.value().TotalWeight(), 3.5);
  // Explicit vertex counts override inference.
  auto padded = LoadBipartiteGraphTsv(path, 10, 10);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value().num_left(), 10);
}

TEST(SerializationTest, TsvRejectsMalformedLines) {
  const std::string path = TempPath("bad.tsv");
  {
    std::ofstream out(path);
    out << "0\tnot_a_number\n";
  }
  EXPECT_FALSE(LoadBipartiteGraphTsv(path).ok());
  {
    std::ofstream out(path);
    out << "0\t1\t2\t3\n";  // too many fields
  }
  EXPECT_FALSE(LoadBipartiteGraphTsv(path).ok());
  {
    std::ofstream out(path);
    out << "-1\t0\n";  // negative id
  }
  EXPECT_FALSE(LoadBipartiteGraphTsv(path).ok());
}

TEST(SerializationTest, TsvRejectsPartialNumbersAndBadWeights) {
  const std::string path = TempPath("bad_fields.tsv");
  const char* bad_lines[] = {
      "12abc\t0\n",      // trailing garbage in an id
      "0\t3.5\n",        // fractional id
      "0\t1\t2.5xyz\n",  // trailing garbage in a weight
      "0\t1\tnan\n",     // non-finite weight
      "0\t1\tinf\n",     // non-finite weight
      "0\t1\t-2.0\n",    // negative weight
  };
  for (const char* line : bad_lines) {
    SCOPED_TRACE(line);
    {
      std::ofstream out(path);
      out << "0\t0\t1.0\n" << line;  // valid first line, bad second
    }
    auto loaded = LoadBipartiteGraphTsv(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    // The error pinpoints the offending line.
    EXPECT_NE(loaded.status().ToString().find(":2"), std::string::npos)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace hignn
