#include "core/checkpoint.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hignn.h"
#include "core/training_monitor.h"
#include "data/synthetic.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// A per-test checkpoint directory, wiped so reruns start clean.
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// Disarms fault injection when a test body exits, including on assertion
// failure, so one test's spec never leaks into the next.
struct FaultGuard {
  ~FaultGuard() { fault::Configure(""); }
};

int CountCheckpointFiles(const std::string& dir) {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) ++count;
  }
  return count;
}

HignnConfig SmallConfig() {
  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {4, 3};
  config.sage.train_steps = 12;
  config.min_clusters = 2;
  config.num_threads = 1;
  return config;
}

void ExpectModelsBitwiseEqual(const HignnModel& a, const HignnModel& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  EXPECT_TRUE(AllClose(a.AllHierarchicalLeft(), b.AllHierarchicalLeft(), 0.0f));
  EXPECT_TRUE(
      AllClose(a.AllHierarchicalRight(), b.AllHierarchicalRight(), 0.0f));
  for (int32_t l = 0; l < a.num_levels(); ++l) {
    SCOPED_TRACE(l);
    EXPECT_EQ(a.levels()[l].train_loss, b.levels()[l].train_loss);
    EXPECT_EQ(a.levels()[l].num_left_clusters, b.levels()[l].num_left_clusters);
    EXPECT_EQ(a.levels()[l].num_right_clusters,
              b.levels()[l].num_right_clusters);
    EXPECT_EQ(a.levels()[l].left_assignment, b.levels()[l].left_assignment);
    EXPECT_EQ(a.levels()[l].right_assignment, b.levels()[l].right_assignment);
  }
}

// A checkpoint with every field populated non-trivially, so round-trip
// tests notice any dropped or reordered payload.
TrainingCheckpoint MakeSampleCheckpoint(uint64_t fingerprint,
                                        int64_t sequence) {
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint;
  ckpt.sequence = sequence;
  ckpt.level = 2;

  Rng rng(11);
  HignnLevel level;
  level.graph.num_left = 3;
  level.graph.num_right = 3;
  level.graph.num_edges = 3;
  level.left_embeddings = Matrix(3, 4);
  level.left_embeddings.FillNormal(rng);
  level.right_embeddings = Matrix(3, 4);
  level.right_embeddings.FillNormal(rng);
  level.left_assignment = {0, 1, 0};
  level.right_assignment = {1, 0, 1};
  level.num_left_clusters = 2;
  level.num_right_clusters = 2;
  level.train_loss = 0.25;
  ckpt.completed_levels.push_back(std::move(level));

  LevelTrainingState& training = ckpt.training;
  training.step = 5;
  for (int i = 0; i < 2; ++i) {
    Matrix p(4, 2);
    p.FillNormal(rng);
    training.params.push_back(std::move(p));
    for (int t = 0; t < 2; ++t) {
      Matrix aux(4, 2);
      aux.FillNormal(rng);
      training.opt.tensors.push_back(std::move(aux));
    }
    training.opt.steps.push_back(3);
  }
  training.learning_rate = 0.125f;

  Rng stream(99);
  Matrix burn(5, 5);
  burn.FillNormal(stream);  // advance past the initial state
  training.rng = stream.SaveState();

  training.tail_loss_sum = 1.5;
  training.tail_count = 3;
  ckpt.monitor.ema = 0.5;
  ckpt.monitor.observed = 12;
  ckpt.monitor.rollbacks = 1;
  ckpt.monitor.skipped_steps = 2;
  return ckpt;
}

// --- fault injection --------------------------------------------------

TEST(FaultInjectionTest, DisabledByDefault) {
  FaultGuard guard;
  fault::Configure("");
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail("nothing.armed"));
  EXPECT_EQ(fault::HitCount("nothing.armed"), 0);
}

TEST(FaultInjectionTest, FailFiresExactlyOnTheArmedHit) {
  FaultGuard guard;
  fault::Configure("unit.fail=fail@2");
  EXPECT_TRUE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail("unit.fail"));  // hit 1
  EXPECT_TRUE(fault::ShouldFail("unit.fail"));   // hit 2: armed occurrence
  EXPECT_FALSE(fault::ShouldFail("unit.fail"));  // hit 3: one-shot, passed
  EXPECT_EQ(fault::HitCount("unit.fail"), 3);
  EXPECT_FALSE(fault::ShouldFail("unit.other"));  // unarmed site
}

TEST(FaultInjectionTest, ConfigureReplacesSpecAndResetsCounters) {
  FaultGuard guard;
  fault::Configure("unit.a=fail");
  EXPECT_TRUE(fault::ShouldFail("unit.a"));
  fault::Configure("unit.b=fail");
  EXPECT_FALSE(fault::ShouldFail("unit.a"));  // no longer armed
  EXPECT_EQ(fault::HitCount("unit.a"), 0);    // counters reset
  EXPECT_TRUE(fault::ShouldFail("unit.b"));
}

TEST(FaultInjectionTest, CrashExitsWithHarnessExitCode) {
  EXPECT_EXIT(
      {
        fault::Configure("unit.crash=crash");
        fault::MaybeCrash("unit.crash");
      },
      ::testing::ExitedWithCode(fault::kCrashExitCode), "");
}

// --- training monitor -------------------------------------------------

TEST(TrainingMonitorTest, NonFiniteLossIsImmediateRollback) {
  TrainingMonitor monitor{TrainingMonitorConfig()};
  EXPECT_EQ(monitor.ObserveLoss(1.0), HealthVerdict::kHealthy);
  EXPECT_EQ(monitor.ObserveLoss(std::numeric_limits<double>::quiet_NaN()),
            HealthVerdict::kRollback);
  EXPECT_EQ(monitor.ObserveLoss(std::numeric_limits<double>::infinity()),
            HealthVerdict::kRollback);
}

TEST(TrainingMonitorTest, DivergenceArmsOnlyAfterWarmup) {
  TrainingMonitorConfig config;
  config.warmup_steps = 3;
  config.divergence_factor = 2.0;
  TrainingMonitor monitor{config};
  // A huge spike inside warmup is tolerated (it just skews the EMA).
  EXPECT_EQ(monitor.ObserveLoss(1.0), HealthVerdict::kHealthy);
  EXPECT_EQ(monitor.ObserveLoss(100.0), HealthVerdict::kHealthy);
  // Rebuild with calm losses, then spike after warmup.
  TrainingMonitor armed{config};
  EXPECT_EQ(armed.ObserveLoss(1.0), HealthVerdict::kHealthy);
  EXPECT_EQ(armed.ObserveLoss(1.0), HealthVerdict::kHealthy);
  EXPECT_EQ(armed.ObserveLoss(1.0), HealthVerdict::kHealthy);
  EXPECT_EQ(armed.ObserveLoss(1.1), HealthVerdict::kHealthy);
  EXPECT_EQ(armed.ObserveLoss(10.0), HealthVerdict::kRollback);
}

TEST(TrainingMonitorTest, GradientsFiniteCountsSkippedSteps) {
  TrainingMonitor monitor{TrainingMonitorConfig()};
  Parameter p("w", Matrix(2, 2));
  p.grad.Fill(1.0f);
  std::vector<Parameter*> params = {&p};
  EXPECT_TRUE(monitor.GradientsFinite(params));
  EXPECT_EQ(monitor.skipped_steps(), 0);
  p.grad(0, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(monitor.GradientsFinite(params));
  EXPECT_EQ(monitor.skipped_steps(), 1);
}

TEST(TrainingMonitorTest, RollbackResetsStatisticsAndTracksBudget) {
  TrainingMonitorConfig config;
  config.max_rollbacks = 1;
  TrainingMonitor monitor{config};
  EXPECT_EQ(monitor.ObserveLoss(2.0), HealthVerdict::kHealthy);
  monitor.OnRollback();
  EXPECT_EQ(monitor.rollbacks(), 1);
  EXPECT_FALSE(monitor.RollbackBudgetExhausted());
  // Loss statistics restart so retried steps re-warm the EMA.
  EXPECT_EQ(monitor.ExportState().observed, 0);
  EXPECT_EQ(monitor.ExportState().ema, 0.0);
  monitor.OnRollback();
  EXPECT_TRUE(monitor.RollbackBudgetExhausted());
}

TEST(TrainingMonitorTest, DisabledMonitorReportsEverythingHealthy) {
  TrainingMonitorConfig config;
  config.enabled = false;
  TrainingMonitor monitor{config};
  EXPECT_EQ(monitor.ObserveLoss(std::numeric_limits<double>::quiet_NaN()),
            HealthVerdict::kHealthy);
  Parameter p("w", Matrix(1, 1));
  p.grad(0, 0) = std::numeric_limits<float>::infinity();
  std::vector<Parameter*> params = {&p};
  EXPECT_TRUE(monitor.GradientsFinite(params));
  EXPECT_EQ(monitor.skipped_steps(), 0);
}

TEST(TrainingMonitorTest, StateRoundTripsThroughExportRestore) {
  TrainingMonitor monitor{TrainingMonitorConfig()};
  monitor.ObserveLoss(1.0);
  monitor.ObserveLoss(2.0);
  monitor.OnRollback();
  const TrainingMonitorState state = monitor.ExportState();
  TrainingMonitor restored{TrainingMonitorConfig()};
  restored.RestoreState(state);
  EXPECT_EQ(restored.rollbacks(), monitor.rollbacks());
  EXPECT_EQ(restored.ExportState().ema, state.ema);
  EXPECT_EQ(restored.ExportState().observed, state.observed);
}

// --- checkpoint persistence -------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTripPreservesEveryField) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  CheckpointOptions options;
  options.dir = dir;
  const TrainingCheckpoint original = MakeSampleCheckpoint(0xDEADBEEFu, 7);
  ASSERT_TRUE(SaveCheckpoint(original, options).ok());
  ASSERT_TRUE(std::filesystem::exists(dir + "/LATEST"));

  auto loaded = LoadCheckpointFile(CheckpointPath(dir, 7));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TrainingCheckpoint& ckpt = loaded.value();
  EXPECT_EQ(ckpt.fingerprint, original.fingerprint);
  EXPECT_EQ(ckpt.sequence, original.sequence);
  EXPECT_EQ(ckpt.level, original.level);

  ASSERT_EQ(ckpt.completed_levels.size(), original.completed_levels.size());
  const HignnLevel& level = ckpt.completed_levels[0];
  const HignnLevel& expected = original.completed_levels[0];
  EXPECT_EQ(level.graph, expected.graph);
  EXPECT_TRUE(AllClose(level.left_embeddings, expected.left_embeddings, 0.0f));
  EXPECT_TRUE(
      AllClose(level.right_embeddings, expected.right_embeddings, 0.0f));
  EXPECT_EQ(level.left_assignment, expected.left_assignment);
  EXPECT_EQ(level.right_assignment, expected.right_assignment);
  EXPECT_EQ(level.num_left_clusters, expected.num_left_clusters);
  EXPECT_EQ(level.train_loss, expected.train_loss);

  const LevelTrainingState& training = ckpt.training;
  const LevelTrainingState& want = original.training;
  EXPECT_EQ(training.step, want.step);
  ASSERT_EQ(training.params.size(), want.params.size());
  for (size_t i = 0; i < training.params.size(); ++i) {
    EXPECT_TRUE(AllClose(training.params[i], want.params[i], 0.0f));
  }
  ASSERT_EQ(training.opt.tensors.size(), want.opt.tensors.size());
  for (size_t i = 0; i < training.opt.tensors.size(); ++i) {
    EXPECT_TRUE(
        AllClose(training.opt.tensors[i], want.opt.tensors[i], 0.0f));
  }
  EXPECT_EQ(training.opt.steps, want.opt.steps);
  EXPECT_EQ(training.learning_rate, want.learning_rate);

  for (int i = 0; i < 4; ++i) EXPECT_EQ(training.rng.s[i], want.rng.s[i]);
  EXPECT_EQ(training.rng.has_cached_normal, want.rng.has_cached_normal);
  EXPECT_EQ(training.rng.cached_normal, want.rng.cached_normal);

  EXPECT_EQ(training.tail_loss_sum, want.tail_loss_sum);
  EXPECT_EQ(training.tail_count, want.tail_count);
  EXPECT_EQ(ckpt.monitor.ema, original.monitor.ema);
  EXPECT_EQ(ckpt.monitor.observed, original.monitor.observed);
  EXPECT_EQ(ckpt.monitor.rollbacks, original.monitor.rollbacks);
  EXPECT_EQ(ckpt.monitor.skipped_steps, original.monitor.skipped_steps);

  // LoadLatestCheckpoint honours the fingerprint gate.
  auto latest = LoadLatestCheckpoint(options, original.fingerprint);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().sequence, 7);
  auto mismatched = LoadLatestCheckpoint(options, original.fingerprint + 1);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, LoadLatestFromMissingDirIsNotFound) {
  CheckpointOptions options;
  options.dir = TempPath("ckpt_never_created");
  std::filesystem::remove_all(options.dir);
  auto result = LoadLatestCheckpoint(options, 123);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, PruningKeepsOnlyTheNewestFiles) {
  const std::string dir = FreshDir("ckpt_prune");
  CheckpointOptions options;
  options.dir = dir;
  options.keep_last = 2;
  for (int64_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(SaveCheckpoint(MakeSampleCheckpoint(1, seq), options).ok());
  }
  EXPECT_EQ(CountCheckpointFiles(dir), 2);
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath(dir, 2)));
  ASSERT_TRUE(std::filesystem::exists(CheckpointPath(dir, 4)));
  auto latest = LoadLatestCheckpoint(options, 1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().sequence, 4);
}

// --- crash-and-resume integration -------------------------------------

// Kill training at an injected fault, rerun with resume, and the final
// model is bitwise identical to an uninterrupted run, at 1 thread and at
// 4, where the trainer draws each next step ahead on a pool worker and
// the mid-level saves must still record the rng at the step boundary.
// The reference is a 1-thread run. At 12 steps with a
// save every 5, the saves of a 3-level fit are boundary(1), mid(5),
// mid(10), boundary(2), mid(5), mid(10), boundary(3), mid(5), mid(10),
// boundary(4); a 2-level fit stops at boundary(3), its 7th save. Each
// save probes `checkpoint.saved` twice (crash probe, then the fail
// check), so failing the Nth save means arming hit 2N. The failed save's
// file is durable but the manifest still names the save before it, which
// is where resume picks up. The 2-level cases fail the initial boundary
// (1), a mid-level save inside level 1 (2), the level-2 boundary (4) and
// a mid-level save inside level 2 (6). The 3-level case fails the second
// mid-level save of level 3 (9), so resume restores level 3 at step 5
// after replaying two coarsenings.
TEST(CheckpointTest, ResumeAfterInjectedFailureIsBitwiseIdentical) {
  FaultGuard guard;
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  const struct {
    int32_t levels;
    int fail_save;
  } cases[] = {{2, 1}, {2, 2}, {2, 4}, {2, 6}, {3, 9}};

  for (const auto& c : cases) {
    HignnConfig config = SmallConfig();
    config.levels = c.levels;
    const HignnModel reference =
        Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                   config)
            .ValueOrDie();
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << c.levels << " levels, failed save " << c.fail_save
                   << ", " << threads << " threads");
      config.num_threads = threads;
      CheckpointOptions options;
      options.dir = FreshDir(StrFormat("ckpt_resume_%d_%d_%d", c.levels,
                                       c.fail_save, threads));
      options.step_interval = 5;

      fault::Configure(
          StrFormat("checkpoint.saved=fail@%d", 2 * c.fail_save));
      auto interrupted =
          Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                     config, options, TrainingMonitorConfig());
      fault::Configure("");
      ASSERT_FALSE(interrupted.ok());
      EXPECT_EQ(interrupted.status().code(), StatusCode::kInternal);

      // An unreachable hit only counts the resumed run's saves.
      fault::Configure("checkpoint.saved=fail@1000");
      auto resumed =
          Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                     config, options, TrainingMonitorConfig());
      const int resumed_probes = fault::HitCount("checkpoint.saved");
      fault::Configure("");
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectModelsBitwiseEqual(resumed.value(), reference);
      if (c.levels == 3) {
        // Resumed inside level 3: only mid(10) and boundary(4) remain.
        EXPECT_EQ(resumed_probes, 2 * 2);
      }
    }
  }
  SetGlobalThreadPoolThreads(1);
}

// A fresh run in a directory that holds another run's checkpoints
// numbers its saves after theirs. Pruning keeps the highest sequences, so
// a run numbered from 0 would lose each of its saves as soon as it wrote
// it, and a kill between two saves would leave it nothing to resume.
TEST(CheckpointTest, FreshRunNumbersAfterAnotherRunsCheckpoints) {
  FaultGuard guard;
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  CheckpointOptions options;
  options.step_interval = 5;
  options.keep_last = 3;
  HignnConfig other = SmallConfig();
  other.seed = 4321;
  const HignnConfig config = SmallConfig();
  const uint64_t fingerprint = FingerprintFitInputs(
      graph, dataset.user_features(), dataset.item_features(), config);
  const HignnModel reference =
      Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                 config)
          .ValueOrDie();
  // Each run of SmallConfig makes 7 saves (see the resume test above).
  const auto fill_with_other_run = [&](const std::string& name) {
    options.dir = FreshDir(name);
    ASSERT_TRUE(Hignn::Fit(graph, dataset.user_features(),
                           dataset.item_features(), other, options,
                           TrainingMonitorConfig())
                    .ok());
    ASSERT_EQ(NextCheckpointSequence(options.dir), 7);
  };

  fill_with_other_run("ckpt_numbering");
  auto fresh = Hignn::Fit(graph, dataset.user_features(),
                          dataset.item_features(), config, options,
                          TrainingMonitorConfig());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectModelsBitwiseEqual(fresh.value(), reference);
  // Saves 7..13: the newest three survive, and LATEST names the last.
  EXPECT_EQ(CountCheckpointFiles(options.dir), options.keep_last);
  for (int64_t seq = 11; seq <= 13; ++seq) {
    auto kept = LoadCheckpointFile(CheckpointPath(options.dir, seq));
    ASSERT_TRUE(kept.ok()) << seq << ": " << kept.status().ToString();
    EXPECT_EQ(kept.value().fingerprint, fingerprint) << seq;
  }
  auto latest = LoadLatestCheckpoint(options, fingerprint);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().sequence, 13);

  // A run killed at its third save (level 1's second mid-level save)
  // resumes from its first mid-level save: four saves remain.
  fill_with_other_run("ckpt_numbering_resume");
  fault::Configure("checkpoint.saved=fail@6");
  ASSERT_FALSE(Hignn::Fit(graph, dataset.user_features(),
                          dataset.item_features(), config, options,
                          TrainingMonitorConfig())
                   .ok());
  fault::Configure("checkpoint.saved=fail@1000");
  auto resumed = Hignn::Fit(graph, dataset.user_features(),
                            dataset.item_features(), config, options,
                            TrainingMonitorConfig());
  const int resumed_probes = fault::HitCount("checkpoint.saved");
  fault::Configure("");
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectModelsBitwiseEqual(resumed.value(), reference);
  EXPECT_EQ(resumed_probes, 2 * 5);
}

// A checkpoint can pass its checksums and carry the right fingerprint,
// yet hold a level 1 that does not fit the input graph. Replay finds
// that out: Fit warns, starts fresh, and returns the model of an
// uninterrupted run.
TEST(CheckpointTest, CheckpointThatDoesNotReplayStartsFresh) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  const HignnConfig config = SmallConfig();
  const HignnModel reference =
      Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                 config)
          .ValueOrDie();

  SyntheticConfig other_config = SyntheticConfig::Tiny();
  other_config.seed = 8;
  auto other = SyntheticDataset::Generate(other_config).ValueOrDie();
  const HignnModel stranger =
      Hignn::Fit(other.BuildTrainGraph(), other.user_features(),
                 other.item_features(), config)
          .ValueOrDie();
  HignnLevel edge_off = reference.levels()[0];
  edge_off.graph.num_edges -= 1;
  ASSERT_NE(stranger.levels()[0].graph, reference.levels()[0].graph);

  const struct {
    const char* name;
    const HignnLevel& level1;
  } cases[] = {{"level 1 of a fit on another graph", stranger.levels()[0]},
               {"level 1 one edge short", edge_off}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    CheckpointOptions options;
    options.dir = FreshDir("ckpt_no_replay");
    TrainingCheckpoint ckpt;
    ckpt.fingerprint = FingerprintFitInputs(graph, dataset.user_features(),
                                            dataset.item_features(), config);
    ckpt.sequence = 5;
    ckpt.level = 2;
    ckpt.completed_levels.push_back(c.level1);
    ASSERT_TRUE(SaveCheckpoint(ckpt, options).ok());
    ASSERT_TRUE(LoadLatestCheckpoint(options, ckpt.fingerprint).ok());

    ::testing::internal::CaptureStderr();
    auto resumed =
        Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                   config, options, TrainingMonitorConfig());
    const std::string log = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_NE(log.find("ignoring checkpoint seq 5"), std::string::npos)
        << log;
    ExpectModelsBitwiseEqual(resumed.value(), reference);
  }
}

TEST(CheckpointTest, FinishedRunResumesWithoutRetraining) {
  FaultGuard guard;
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  const HignnConfig config = SmallConfig();
  const std::string dir = FreshDir("ckpt_finished");
  CheckpointOptions options;
  options.dir = dir;

  auto first = Hignn::Fit(graph, dataset.user_features(),
                          dataset.item_features(), config, options,
                          TrainingMonitorConfig());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Any save attempt on the rerun would trip this fault (hit 2 is the
  // fail check of the first save); a finished run must come back from the
  // final checkpoint without training or saving.
  fault::Configure("checkpoint.saved=fail@2");
  auto second = Hignn::Fit(graph, dataset.user_features(),
                           dataset.item_features(), config, options,
                           TrainingMonitorConfig());
  EXPECT_EQ(fault::HitCount("checkpoint.saved"), 0);  // nothing was saved
  fault::Configure("");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectModelsBitwiseEqual(second.value(), first.value());
}

TEST(CheckpointTest, FingerprintMismatchStartsFresh) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  const HignnConfig config = SmallConfig();
  const std::string dir = FreshDir("ckpt_fingerprint");
  CheckpointOptions options;
  options.dir = dir;

  ASSERT_TRUE(Hignn::Fit(graph, dataset.user_features(),
                         dataset.item_features(), config, options,
                         TrainingMonitorConfig())
                  .ok());

  // Same directory, different seed: the stale checkpoints must be ignored
  // and the result must match a from-scratch fit with the new seed.
  HignnConfig reseeded = config;
  reseeded.seed = 4321;
  const HignnModel fresh =
      Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                 reseeded)
          .ValueOrDie();
  auto resumed = Hignn::Fit(graph, dataset.user_features(),
                            dataset.item_features(), reseeded, options,
                            TrainingMonitorConfig());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectModelsBitwiseEqual(resumed.value(), fresh);
}

TEST(CheckpointTest, RollbackBudgetExhaustionAbortsTraining) {
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  HignnConfig config = SmallConfig();
  TrainingMonitorConfig monitor;
  monitor.warmup_steps = 2;
  monitor.divergence_factor = 1e-9;  // every post-warmup loss "diverges"
  monitor.max_rollbacks = 1;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    config.num_threads = threads;
    auto result = Hignn::Fit(dataset.BuildTrainGraph(),
                             dataset.user_features(), dataset.item_features(),
                             config, CheckpointOptions(), monitor);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  SetGlobalThreadPoolThreads(1);
}

}  // namespace
}  // namespace hignn
