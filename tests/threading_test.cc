// 1-thread vs N-thread determinism: every parallel kernel partitions work
// so each output element is produced by exactly one thread with a fixed
// accumulation order, and every floating-point reduction merges
// workload-derived chunks in ascending order. These tests pin that
// contract: identical bits at num_threads = 1 and num_threads = 4.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/kmeans.h"
#include "core/hignn.h"
#include "data/synthetic.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "pool_testing.h"
#include "sage/bipartite_sage.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hignn {
namespace {

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

// Sizes derive from the pool's serial cutoff so the 4-thread run takes
// the parallel path, and each test checks that it did.
TEST(ParallelKernelTest, MatMulBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(RowsAboveSerialCutoff(64 * 48), 64, 1);
  const Matrix b = RandomMatrix(64, 48, 2);
  SetGlobalThreadPoolThreads(1);
  const Matrix seq = MatMul(a, b);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix par = MatMul(a, b);
  EXPECT_EQ(dispatches.value(), 1);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(seq, par));
}

TEST(ParallelKernelTest, MatMulBTBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(RowsAboveSerialCutoff(64 * 96), 64, 3);
  const Matrix b = RandomMatrix(96, 64, 4);
  SetGlobalThreadPoolThreads(1);
  const Matrix seq = MatMulBT(a, b);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix par = MatMulBT(a, b);
  EXPECT_EQ(dispatches.value(), 1);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(seq, par));
}

TEST(ParallelKernelTest, MatMulATBitwiseStableAcrossThreadCounts) {
  const size_t rows = RowsAboveSerialCutoff(64 * 48);
  const Matrix a = RandomMatrix(rows, 64, 5);
  const Matrix b = RandomMatrix(rows, 48, 6);
  SetGlobalThreadPoolThreads(1);
  const Matrix seq = MatMulAT(a, b);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix par = MatMulAT(a, b);
  EXPECT_EQ(dispatches.value(), 1);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(seq, par));
}

TEST(ParallelKernelTest, TransposeBitwiseStableAcrossThreadCounts) {
  const Matrix a = RandomMatrix(RowsAboveSerialCutoff(1400), 1400, 7);
  SetGlobalThreadPoolThreads(1);
  const Matrix seq = Transpose(a);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix par = Transpose(a);
  EXPECT_EQ(dispatches.value(), 1);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(BitwiseEqual(seq, par));
}

TEST(ParallelKernelTest, MatMulAgreesWithNaiveReference) {
  const Matrix a = RandomMatrix(RowsAboveSerialCutoff(70 * 50), 70, 8);
  const Matrix b = RandomMatrix(70, 50, 9);
  SetGlobalThreadPoolThreads(4);
  const ParallelDispatchCount dispatches;
  const Matrix out = MatMul(a, b);
  EXPECT_EQ(dispatches.value(), 1);
  SetGlobalThreadPoolThreads(1);
  Rng probe(10);
  for (int t = 0; t < 50; ++t) {
    const size_t i = probe.UniformInt(a.rows());
    const size_t j = probe.UniformInt(b.cols());
    float acc = 0.0f;
    for (size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
    EXPECT_NEAR(out(i, j), acc, 1e-4f);
  }
}

KMeansResult RunKMeansWithThreads(const Matrix& points, int threads) {
  SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
  KMeansConfig config;
  config.k = 24;
  config.algorithm = KMeansAlgorithm::kLloyd;
  config.max_iters = 10;
  config.seed = 99;
  auto result = RunKMeans(points, config);
  SetGlobalThreadPoolThreads(1);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(KMeansDeterminismTest, OneVsFourThreadsIdentical) {
  // 400 * 24 * 16 distance flops per pass: well above the inline cutoff,
  // so assignment, init and center reduction all take the parallel paths.
  const Matrix points = RandomMatrix(400, 16, 11);
  const KMeansResult one = RunKMeansWithThreads(points, 1);
  const KMeansResult four = RunKMeansWithThreads(points, 4);
  EXPECT_EQ(one.assignment, four.assignment);
  EXPECT_EQ(one.iterations, four.iterations);
  EXPECT_EQ(one.inertia, four.inertia);
  EXPECT_TRUE(BitwiseEqual(one.centers, four.centers));
}

// Completion is per call: two external threads drive ParallelFor on one
// pool at once. The throwing caller — and only it — sees its exception,
// and the other caller returns normally with its whole range covered.
TEST(ThreadPoolConcurrencyTest, ExceptionStaysWithItsOwnCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> hits(4096, 0);
    bool clean_threw = false;
    bool throwing_threw = false;
    std::thread clean([&] {
      try {
        pool.ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) hits[i] += 1;
        });
      } catch (...) {
        clean_threw = true;
      }
    });
    std::thread throwing([&] {
      try {
        pool.ParallelForChunks(0, 64, 16, [](size_t c, size_t, size_t) {
          if (c == 3) throw std::runtime_error("chunk 3");
        });
      } catch (const std::runtime_error&) {
        throwing_threw = true;
      }
    });
    clean.join();
    throwing.join();
    EXPECT_FALSE(clean_threw) << "round " << round;
    EXPECT_TRUE(throwing_threw) << "round " << round;
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "round " << round << " index " << i;
    }
  }
}

// Chunk claiming: the workers and each calling thread take chunk indices
// from a per-call counter. Four external callers race 500 calls each over
// a spread of chunk counts; every chunk of every call runs exactly once.
TEST(ThreadPoolConcurrencyTest, EveryChunkRunsExactlyOnce) {
  ThreadPool pool(4);
  const size_t kChunkCounts[] = {1, 2, 3, 5, 64, 1000};
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int call = 0; call < 500; ++call) {
        const size_t chunks = kChunkCounts[call % 6];
        std::vector<std::atomic<int>> hits(chunks);
        pool.ParallelForChunks(0, chunks, chunks,
                               [&](size_t c, size_t lo, size_t hi) {
                                 if (lo == c && hi == c + 1) hits[c] += 1;
                               });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            bad_calls += 1;
            break;
          }
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

// A call never waits for a free worker: with every worker parked in the
// chunks of a blocking ParallelForChunks on a second thread,
// ParallelForChunks from this thread still completes because its caller
// drains its own chunks.
TEST(ThreadPoolConcurrencyTest, CallerDrainsItsOwnChunks) {
  ThreadPool pool(4);
  const size_t workers = pool.num_threads();
  std::atomic<size_t> parked{0};
  std::atomic<bool> release{false};
  // One chunk per worker plus one for the blocking call's own thread: each
  // claimer that takes a chunk holds it until released.
  std::thread blocker([&] {
    pool.ParallelForChunks(0, workers + 1, workers + 1,
                           [&](size_t, size_t, size_t) {
                             parked += 1;
                             while (!release.load()) std::this_thread::yield();
                           });
  });
  while (parked.load() < workers + 1) std::this_thread::yield();
  std::vector<int> hits(100, 0);
  pool.ParallelForChunks(0, hits.size(), 16,
                         [&](size_t, size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) hits[i] += 1;
                         });
  release.store(true);
  blocker.join();
  for (int h : hits) EXPECT_EQ(h, 1);
}

::testing::AssertionResult SameParams(BipartiteSage& a, BipartiteSage& b) {
  const std::vector<Parameter*> pa = a.Params();
  const std::vector<Parameter*> pb = b.Params();
  if (pa.size() != pb.size()) return ::testing::AssertionFailure() << "count";
  for (size_t i = 0; i < pa.size(); ++i) {
    ::testing::AssertionResult same = BitwiseEqual(pa[i]->value, pb[i]->value);
    if (!same) return same << " (parameter " << i << ")";
  }
  return ::testing::AssertionSuccess();
}

// SageTrainer draws step t+1 on a pool worker while the calling thread
// computes step t. At 4 threads it must give the bits of a plain
// one-thread TrainStep loop. A record captured mid-level must hold the rng
// at the step boundary, not after the draw ahead, so a fresh trainer
// restored from it finishes the level with the same bits.
TEST(SageTrainerTest, DrawAheadMatchesTrainStepLoop) {
  auto dataset = SyntheticDataset::Generate(SyntheticConfig::Tiny());
  ASSERT_TRUE(dataset.ok());
  const BipartiteGraph graph = dataset.value().BuildTrainGraph();
  const Matrix& left = dataset.value().user_features();
  const Matrix& right = dataset.value().item_features();
  BipartiteSageConfig config;
  config.dims = {8, 8};
  config.fanouts = {4, 3};
  config.batch_size = 64;
  config.train_steps = 12;
  constexpr int32_t kCaptureStep = 5;
  const auto make_sage = [&] {
    return BipartiteSage::Create(config, static_cast<int32_t>(left.cols()),
                                 static_cast<int32_t>(right.cols()))
        .ValueOrDie();
  };

  SetGlobalThreadPoolThreads(1);
  BipartiteSage reference = make_sage();
  Rng rng(config.seed ^ 0xBEEFULL);
  Adam optimizer(config.learning_rate);
  optimizer.set_weight_decay(config.weight_decay);
  optimizer.set_clip_norm(5.0f);
  std::vector<double> reference_losses;
  RngState boundary;
  for (int32_t step = 0; step < config.train_steps; ++step) {
    if (step == kCaptureStep) boundary = rng.SaveState();
    reference_losses.push_back(
        reference.TrainStep(graph, left, right, optimizer, rng).ValueOrDie());
  }

  SetGlobalThreadPoolThreads(4);
  BipartiteSage sage = make_sage();
  SageTrainer trainer = std::move(
      SageTrainer::Create(sage, graph, left, right, 5.0f).ValueOrDie());
  LevelTrainingState captured;
  std::vector<double> losses;
  while (!trainer.done()) {
    if (trainer.step() == kCaptureStep) captured = trainer.Capture();
    const double loss = trainer.Step(nullptr);
    losses.push_back(loss);
    trainer.Accept(loss);
  }
  EXPECT_EQ(losses, reference_losses);
  EXPECT_TRUE(SameParams(sage, reference));
  EXPECT_EQ(captured.step, kCaptureStep);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(captured.rng.s[k], boundary.s[k]);

  BipartiteSage resumed = make_sage();
  SageTrainer resumed_trainer = std::move(
      SageTrainer::Create(resumed, graph, left, right, 5.0f).ValueOrDie());
  ASSERT_TRUE(resumed_trainer.Restore(captured).ok());
  while (!resumed_trainer.done()) {
    const double loss = resumed_trainer.Step(nullptr);
    EXPECT_EQ(loss, reference_losses[static_cast<size_t>(
                        resumed_trainer.step())]);
    resumed_trainer.Accept(loss);
  }
  EXPECT_TRUE(SameParams(resumed, reference));
  EXPECT_EQ(resumed_trainer.tail_loss(), trainer.tail_loss());
  SetGlobalThreadPoolThreads(1);
}

// ForkJoin runs its side task on a worker, or on the caller when no worker
// has started it, and always its main task on the caller.
TEST(ThreadPoolConcurrencyTest, ForkJoinRunsMainOnTheCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::thread::id main_thread;
    int side_runs = 0;
    pool.ForkJoin([&] { ++side_runs; },
                  [&] { main_thread = std::this_thread::get_id(); });
    ASSERT_EQ(main_thread, std::this_thread::get_id()) << "round " << round;
    ASSERT_EQ(side_runs, 1) << "round " << round;
  }
  // Exceptions come back to the caller, main's first.
  EXPECT_THROW(pool.ForkJoin([] { throw std::runtime_error("side"); }, [] {}),
               std::runtime_error);
  int side_runs = 0;
  try {
    pool.ForkJoin([&] { ++side_runs; },
                  [] { throw std::logic_error("main"); });
    ADD_FAILURE() << "main's exception was swallowed";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(side_runs, 1);
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

TEST(HignnDeterminismTest, FitOneVsFourThreadsIdentical) {
  const HignnModel one = FitWithThreads(1);
  const HignnModel four = FitWithThreads(4);
  ASSERT_EQ(one.num_levels(), four.num_levels());
  for (int32_t l = 0; l < one.num_levels(); ++l) {
    const HignnLevel& a = one.levels()[static_cast<size_t>(l)];
    const HignnLevel& b = four.levels()[static_cast<size_t>(l)];
    EXPECT_EQ(a.left_assignment, b.left_assignment) << "level " << l;
    EXPECT_EQ(a.right_assignment, b.right_assignment) << "level " << l;
    EXPECT_EQ(a.num_left_clusters, b.num_left_clusters);
    EXPECT_EQ(a.num_right_clusters, b.num_right_clusters);
    EXPECT_TRUE(AllClose(a.left_embeddings, b.left_embeddings, 0.0f))
        << "left embeddings, level " << l;
    EXPECT_TRUE(AllClose(a.right_embeddings, b.right_embeddings, 0.0f))
        << "right embeddings, level " << l;
    EXPECT_EQ(a.train_loss, b.train_loss) << "level " << l;
  }
}

}  // namespace
}  // namespace hignn
