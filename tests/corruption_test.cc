#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/serialization.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"

namespace hignn {
namespace {

// Paths are per test: ctest runs tests as parallel processes, and two
// tests rebuilding the same source artifacts would race on the files.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + test->name() + "_" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

struct FaultGuard {
  ~FaultGuard() { fault::Configure(""); }
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(rng);
  return m;
}

HignnLevel MakeLevel(uint64_t seed) {
  Rng rng(seed);
  HignnLevel level;
  BipartiteGraphBuilder builder(4, 3);
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0f).ok());
  EXPECT_TRUE(builder.AddEdge(2, 2, 2.0f).ok());
  EXPECT_TRUE(builder.AddEdge(3, 0, 0.5f).ok());
  level.graph = builder.Build();
  level.left_embeddings = Matrix(4, 4);
  level.left_embeddings.FillNormal(rng);
  level.right_embeddings = Matrix(3, 4);
  level.right_embeddings.FillNormal(rng);
  level.left_assignment = {0, 1, 0, 1};
  level.right_assignment = {0, 0, 1};
  level.num_left_clusters = 2;
  level.num_right_clusters = 2;
  level.train_loss = 0.75;
  return level;
}

TrainingCheckpoint MakeCheckpoint(uint64_t fingerprint, int64_t sequence) {
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint;
  ckpt.sequence = sequence;
  ckpt.level = 2;
  ckpt.sage_step = 4;
  ckpt.completed_levels.push_back(MakeLevel(5));
  BipartiteGraphBuilder builder(2, 2);
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0f).ok());
  ckpt.graph = builder.Build();
  ckpt.left_features = RandomMatrix(2, 3, 6);
  ckpt.right_features = RandomMatrix(2, 3, 7);
  ckpt.params.push_back(RandomMatrix(3, 2, 8));
  ckpt.opt.tensors.push_back(RandomMatrix(3, 2, 9));
  ckpt.opt.tensors.push_back(RandomMatrix(3, 2, 10));
  ckpt.opt.steps.push_back(4);
  ckpt.learning_rate = 0.01f;
  ckpt.tail_loss_sum = 2.0;
  ckpt.tail_count = 1;
  return ckpt;
}

/// One saved artifact plus the loader that must reject its corruptions.
struct Artifact {
  std::string name;
  std::string path;
  std::function<Status(const std::string&)> load;
};

// Every artifact type in the repo, saved once and corrupted many ways.
std::vector<Artifact> BuildArtifacts() {
  std::vector<Artifact> artifacts;

  {
    Artifact a;
    a.name = "matrix";
    a.path = TempPath("corrupt_src_matrix.bin");
    EXPECT_TRUE(SaveMatrix(RandomMatrix(16, 8, 21), a.path).ok());
    a.load = [](const std::string& p) { return LoadMatrix(p).status(); };
    artifacts.push_back(std::move(a));
  }
  {
    Artifact a;
    a.name = "graph";
    a.path = TempPath("corrupt_src_graph.bin");
    BipartiteGraphBuilder builder(6, 5);
    EXPECT_TRUE(builder.AddEdge(0, 4, 1.0f).ok());
    EXPECT_TRUE(builder.AddEdge(5, 0, 2.0f).ok());
    EXPECT_TRUE(builder.AddEdge(3, 3, 0.5f).ok());
    EXPECT_TRUE(SaveBipartiteGraph(builder.Build(), a.path).ok());
    a.load = [](const std::string& p) {
      return LoadBipartiteGraph(p).status();
    };
    artifacts.push_back(std::move(a));
  }
  {
    Artifact a;
    a.name = "model";
    a.path = TempPath("corrupt_src_model.hgnn");
    std::vector<HignnLevel> levels;
    levels.push_back(MakeLevel(31));
    levels.push_back(MakeLevel(32));
    EXPECT_TRUE(
        SaveHignnModel(HignnModel::FromLevels(std::move(levels)), a.path)
            .ok());
    a.load = [](const std::string& p) { return LoadHignnModel(p).status(); };
    artifacts.push_back(std::move(a));
  }
  {
    Artifact a;
    a.name = "checkpoint";
    const std::string dir = FreshDir("corrupt_src_ckpt");
    CheckpointOptions options;
    options.dir = dir;
    EXPECT_TRUE(SaveCheckpoint(MakeCheckpoint(41, 1), options).ok());
    a.path = CheckpointPath(dir, 1);
    a.load = [](const std::string& p) {
      return LoadCheckpointFile(p).status();
    };
    artifacts.push_back(std::move(a));
  }
  return artifacts;
}

TEST(CorruptionTest, TruncationIsRejectedEverywhere) {
  const std::string victim = TempPath("truncated_artifact.bin");
  for (const Artifact& artifact : BuildArtifacts()) {
    const std::string bytes = ReadBytes(artifact.path);
    ASSERT_GT(bytes.size(), 16u) << artifact.name;
    const size_t cuts[] = {0, 1, bytes.size() / 4, bytes.size() / 2,
                           bytes.size() - 1};
    for (size_t cut : cuts) {
      SCOPED_TRACE(artifact.name + " truncated to " + std::to_string(cut));
      WriteBytes(victim, bytes.substr(0, cut));
      const Status status = artifact.load(victim);
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
    }
  }
}

TEST(CorruptionTest, SingleBitFlipIsRejectedEverywhere) {
  const std::string victim = TempPath("bitflipped_artifact.bin");
  for (const Artifact& artifact : BuildArtifacts()) {
    const std::string bytes = ReadBytes(artifact.path);
    const size_t n = bytes.size();
    // Header magic, version/tag region, payload body, section table, and
    // the footer trailer itself.
    const size_t offsets[] = {0, 5, n / 3, n / 2, (2 * n) / 3, n - 5, n - 1};
    for (size_t offset : offsets) {
      SCOPED_TRACE(artifact.name + " bit flip at " + std::to_string(offset));
      std::string mutated = bytes;
      mutated[offset] = static_cast<char>(mutated[offset] ^ 0x10);
      WriteBytes(victim, mutated);
      const Status status = artifact.load(victim);
      EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
    }
    // The pristine bytes still load: the rejections above are corruption
    // detection, not a broken loader.
    WriteBytes(victim, bytes);
    EXPECT_TRUE(artifact.load(victim).ok()) << artifact.name;
  }
}

TEST(CorruptionTest, GarbageAndEmptyFilesAreRejected) {
  const std::string path = TempPath("garbage_artifact.bin");
  WriteBytes(path, "");
  EXPECT_EQ(LoadMatrix(path).status().code(), StatusCode::kIOError);
  WriteBytes(path, "HGNN");  // right magic, nothing else
  EXPECT_EQ(LoadMatrix(path).status().code(), StatusCode::kIOError);
  WriteBytes(path, std::string(512, '\x5a'));
  EXPECT_EQ(LoadCheckpointFile(path).status().code(), StatusCode::kIOError);
  EXPECT_EQ(LoadMatrix(TempPath("no_such_artifact.bin")).status().code(),
            StatusCode::kIOError);
}

// A failed rewrite must leave the previous artifact untouched and no tmp
// debris behind — the atomic tmp+rename contract.
// A 0 x 0 matrix reads and writes zero-length arrays — the edge the
// sanitizer legs must see (no null pointers handed to memcpy).
TEST(CorruptionTest, EmptyMatrixRoundTripsAndRejectsTruncation) {
  const std::string path = TempPath("empty_matrix.bin");
  ASSERT_TRUE(SaveMatrix(Matrix(), path).ok());
  Result<Matrix> loaded = LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 0u);
  EXPECT_EQ(loaded.value().cols(), 0u);

  const std::string bytes = ReadBytes(path);
  const std::string truncated_path = TempPath("empty_matrix_truncated.bin");
  WriteBytes(truncated_path, bytes.substr(0, bytes.size() - 1));
  Result<Matrix> truncated = LoadMatrix(truncated_path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);
}

TEST(CorruptionTest, FailedOverwriteLeavesOldArtifactIntact) {
  FaultGuard guard;
  const std::string path = TempPath("overwrite_victim.bin");
  const Matrix original = RandomMatrix(8, 8, 51);
  const Matrix replacement = RandomMatrix(8, 8, 52);
  ASSERT_TRUE(SaveMatrix(original, path).ok());

  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<int>(::getpid()));
  // The rename site is probed twice in Close (crash probe, then the fail
  // check), so its fail action arms at hit 2.
  for (const char* site :
       {"io.writer.close=fail", "io.writer.rename=fail@2"}) {
    SCOPED_TRACE(site);
    fault::Configure(site);
    const Status status = SaveMatrix(replacement, path);
    fault::Configure("");
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_FALSE(std::filesystem::exists(tmp_path));  // no debris
    auto loaded = LoadMatrix(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(AllClose(loaded.value(), original, 0.0f));
  }

  // Without the fault the overwrite goes through.
  ASSERT_TRUE(SaveMatrix(replacement, path).ok());
  EXPECT_TRUE(AllClose(LoadMatrix(path).ValueOrDie(), replacement, 0.0f));
}

TEST(CorruptionTest, CorruptNewestCheckpointFallsBackToPredecessor) {
  const std::string dir = FreshDir("ckpt_fallback");
  CheckpointOptions options;
  options.dir = dir;
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(77, 1), options).ok());
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(77, 2), options).ok());

  // Corrupt the newest file (the manifest's pick).
  const std::string newest = CheckpointPath(dir, 2);
  std::string bytes = ReadBytes(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteBytes(newest, bytes);

  auto latest = LoadLatestCheckpoint(options, 77);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().sequence, 1);

  // Corrupt the survivor too: nothing resumable remains.
  const std::string older = CheckpointPath(dir, 1);
  bytes = ReadBytes(older);
  bytes.resize(bytes.size() / 2);
  WriteBytes(older, bytes);
  EXPECT_EQ(LoadLatestCheckpoint(options, 77).status().code(),
            StatusCode::kNotFound);
}

TEST(CorruptionTest, TornManifestStillFindsNewestCheckpoint) {
  const std::string dir = FreshDir("ckpt_torn_manifest");
  CheckpointOptions options;
  options.dir = dir;
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(88, 1), options).ok());
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(88, 2), options).ok());
  WriteBytes(dir + "/LATEST", "torn half-written manifes");
  auto latest = LoadLatestCheckpoint(options, 88);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().sequence, 2);
}

}  // namespace
}  // namespace hignn
