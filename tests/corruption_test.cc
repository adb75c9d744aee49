#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/serialization.h"
#include "matrix_io_testing.h"
#include "util/fault_injection.h"
#include "util/io.h"
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
  level.graph.num_left = 4;
  level.graph.num_right = 3;
  level.graph.num_edges = 3;
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

// The level above MakeLevel: its 2 x 2 cluster graph, one cluster a side.
HignnLevel MakeTopLevel(uint64_t seed) {
  Rng rng(seed);
  HignnLevel level;
  level.graph.num_left = 2;
  level.graph.num_right = 2;
  level.graph.num_edges = 2;
  level.left_embeddings = Matrix(2, 4);
  level.left_embeddings.FillNormal(rng);
  level.right_embeddings = Matrix(2, 4);
  level.right_embeddings.FillNormal(rng);
  level.left_assignment = {0, 0};
  level.right_assignment = {0, 0};
  level.num_left_clusters = 1;
  level.num_right_clusters = 1;
  level.train_loss = 0.5;
  return level;
}

TrainingCheckpoint MakeCheckpoint(uint64_t fingerprint, int64_t sequence) {
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint;
  ckpt.sequence = sequence;
  ckpt.level = 2;
  ckpt.completed_levels.push_back(MakeLevel(5));
  LevelTrainingState& training = ckpt.training;
  training.step = 4;
  training.params.push_back(RandomMatrix(3, 2, 8));
  training.opt.tensors.push_back(RandomMatrix(3, 2, 9));
  training.opt.tensors.push_back(RandomMatrix(3, 2, 10));
  training.opt.steps.push_back(4);
  training.learning_rate = 0.01f;
  training.tail_loss_sum = 2.0;
  training.tail_count = 1;
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
    a.name = "model";
    a.path = TempPath("corrupt_src_model.hgnn");
    std::vector<HignnLevel> levels;
    levels.push_back(MakeLevel(31));
    levels.push_back(MakeTopLevel(32));
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

// ---- Past the checksum: files whose CRCs hold but whose structure lies.

// Every model below is written by SaveHignnModel, so its checksums are
// valid and only the structural checks behind them can reject it.
TEST(CorruptionTest, ModelsThatBreakTheHierarchyAreRejected) {
  const std::string path = TempPath("broken_model.hgnn");
  const auto save_and_load = [&path](std::vector<HignnLevel> levels) {
    EXPECT_TRUE(
        SaveHignnModel(HignnModel::FromLevels(std::move(levels)), path).ok());
    return LoadHignnModel(path).status();
  };
  const auto fixture = [] {
    std::vector<HignnLevel> levels;
    levels.push_back(MakeLevel(61));
    levels.push_back(MakeTopLevel(62));
    return levels;
  };
  ASSERT_TRUE(save_and_load(fixture()).ok());

  struct Case {
    const char* rule;
    std::function<void(std::vector<HignnLevel>&)> mutate;
  };
  const Case cases[] = {
      {"no levels", [](std::vector<HignnLevel>& levels) { levels.clear(); }},
      {"embedding rows differ from the vertex count",
       [](std::vector<HignnLevel>& levels) {
         levels[0].left_embeddings = Matrix(3, 4);
       }},
      {"left and right embedding widths differ",
       [](std::vector<HignnLevel>& levels) {
         levels[0].right_embeddings = Matrix(3, 5);
       }},
      {"embedding width differs from the level below",
       [](std::vector<HignnLevel>& levels) {
         levels[1].left_embeddings = Matrix(2, 3);
         levels[1].right_embeddings = Matrix(2, 3);
       }},
      // The level-1 chain would index level 2's 2 rows at 100000.
      {"assignment beyond the cluster count",
       [](std::vector<HignnLevel>& levels) {
         levels[0].left_assignment[2] = 100000;
       }},
      {"negative assignment",
       [](std::vector<HignnLevel>& levels) {
         levels[1].right_assignment[1] = -1;
       }},
      // Valid assignments into 3 right clusters, under a 2-vertex level.
      {"vertex counts differ from the cluster counts below",
       [](std::vector<HignnLevel>& levels) {
         levels[0].right_assignment = {0, 1, 2};
         levels[0].num_right_clusters = 3;
       }},
      {"more edges than vertex pairs",
       [](std::vector<HignnLevel>& levels) { levels[1].graph.num_edges = 5; }},
      {"negative edge count",
       [](std::vector<HignnLevel>& levels) {
         levels[0].graph.num_edges = -1;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    std::vector<HignnLevel> levels = fixture();
    c.mutate(levels);
    const Status status = save_and_load(std::move(levels));
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  }
}

// Checkpoint load shares the level reader, and the level in progress
// must sit on exactly level - 1 finished levels.
TEST(CorruptionTest, CheckpointsThatBreakTheHierarchyAreRejected) {
  const std::string dir = FreshDir("broken_ckpt");
  CheckpointOptions options;
  options.dir = dir;
  options.keep_last = 8;

  // A second 4 x 3 level cannot sit on the first one's 2 x 2 clusters.
  TrainingCheckpoint levels_off_chain = MakeCheckpoint(91, 1);
  levels_off_chain.level = 3;
  levels_off_chain.completed_levels.push_back(MakeLevel(93));
  ASSERT_TRUE(SaveCheckpoint(levels_off_chain, options).ok());

  // Level 3 in progress over a single finished level.
  TrainingCheckpoint level_gap = MakeCheckpoint(91, 2);
  level_gap.level = 3;
  ASSERT_TRUE(SaveCheckpoint(level_gap, options).ok());

  for (int64_t sequence : {1, 2}) {
    SCOPED_TRACE(sequence);
    const Status status =
        LoadCheckpointFile(CheckpointPath(dir, sequence)).status();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  }
}

// A count that the verified bytes cannot hold is rejected before it is
// allocated: neither file may abort with length_error or bad_alloc.
TEST(CorruptionTest, CountsBeyondTheRemainingBytesAreRejected) {
  const auto write_model = [](const std::string& path, int32_t num_left,
                              int32_t num_right, bool with_matrix_header) {
    BinaryWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteHeader(kTagHignnModel);
    writer.WriteI32(1);  // one level
    writer.NextSection();
    writer.WriteI32(num_left);
    writer.WriteI32(num_right);
    writer.WriteI64(0);  // no edges
    if (with_matrix_header) {
      writer.WriteU64(uint64_t{1} << 31);  // left embeddings: rows
      writer.WriteU64(uint64_t{1} << 30);  // cols
    }
    ASSERT_TRUE(writer.Close().ok());
  };
  const std::string huge_matrix = TempPath("huge_matrix.hgnn");
  write_model(huge_matrix, 0, 0, /*with_matrix_header=*/true);
  const std::string huge_graph = TempPath("huge_graph.hgnn");
  write_model(huge_graph, 1 << 28, 1 << 28, /*with_matrix_header=*/false);
  for (const std::string& path : {huge_matrix, huge_graph}) {
    SCOPED_TRACE(path);
    const Status status = LoadHignnModel(path).status();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  }
}

// TSV ids size the graph only up to 64 x (edges + 1) vertices per side:
// a huge id is InvalidArgument before the builder allocates, and the
// largest int32 id does not overflow the count.
TEST(CorruptionTest, TsvIdsFarBeyondTheEdgeCountAreRejected) {
  const std::string sparse = TempPath("sparse_id.tsv");
  WriteBytes(sparse, "0\t0\n1\t2000000000\n");
  const std::string largest = TempPath("largest_id.tsv");
  WriteBytes(largest, "2147483647\t0\n");
  for (const auto& [path, side, id, edges] :
       {std::tuple{sparse, "right", "2000000000", "2 edges"},
        std::tuple{largest, "left", "2147483647", "1 edges"}}) {
    SCOPED_TRACE(path);
    const Status status = LoadBipartiteGraphTsv(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    for (const std::string& part : {path, std::string(side) + " id " + id,
                                    std::string(edges), std::string("dense")}) {
      EXPECT_NE(status.ToString().find(part), std::string::npos)
          << status.ToString() << " lacks " << part;
    }
  }
  // One edge allows 128 vertices a side: id 127 loads, id 128 does not.
  const std::string edge = TempPath("edge.tsv");
  WriteBytes(edge, "127\t0\n");
  auto loaded = LoadBipartiteGraphTsv(edge);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_left(), 128);
  WriteBytes(edge, "128\t0\n");
  EXPECT_EQ(LoadBipartiteGraphTsv(edge).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hignn
