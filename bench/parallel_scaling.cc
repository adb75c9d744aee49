// Thread-scaling benchmark for the parallel hot paths.
//
// Times end-to-end Hignn::Fit plus the MatMul and K-means kernels at 1, 2,
// 4 and 8 worker threads on the synthetic workload, measures single-thread
// GEMM throughput on the scalar and dispatched SIMD kernel paths, checks
// that the 1-thread and 4-thread runs produce identical cluster
// assignments (the fixed-order-reduction determinism contract), times
// Lloyd at hignn_bench's fit-large level-1 shape (n = 15000, d = 32,
// K = n/5, 10 iterations) at 1, 2 and 4 threads with its ns per distance
// and the exact distances per point the assignment filter still needs,
// times one level-1 SAGE TrainStep on hignn_bench's fit-small graph at 1
// and 4 threads, measures simd::Tanh per element on both kernel paths
// against the host libm's std::tanh, and records everything to
// BENCH_parallel.json in the working directory.
//
// Speedups are only meaningful when the host actually has that many cores;
// the JSON's "host" envelope records the CPU model, hardware_concurrency
// and the dispatched SIMD path so readers can judge (on a 1-core container
// every thread configuration collapses to ~1x — the SIMD uplift is the
// number that survives there).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/kmeans.h"
#include "core/hignn.h"
#include "data/synthetic.h"
#include "graph/structural_features.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/simd.h"
#include "obs/metrics.h"
#include "sage/bipartite_sage.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace hignn;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

SyntheticDataset MakeWorld() {
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.num_users = bench::Scaled(1000);
  config.num_items = bench::Scaled(500);
  config.mean_clicks_per_user_day = 3.0;
  config.num_days = 5;
  return SyntheticDataset::Generate(config).ValueOrDie();
}

HignnConfig FitConfig(int threads) {
  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {16, 16};
  config.sage.fanouts = {10, 5};
  config.sage.train_steps = bench::Scaled(60);
  config.sage.batch_size = 128;
  config.num_threads = threads;
  return config;
}

double TimeFit(const SyntheticDataset& dataset, const BipartiteGraph& graph,
               int threads, HignnModel* model_out) {
  WallTimer timer;
  auto model = Hignn::Fit(graph, dataset.user_features(),
                          dataset.item_features(), FitConfig(threads));
  HIGNN_CHECK(model.ok());
  if (model_out != nullptr) *model_out = std::move(model).value();
  return timer.Seconds();
}

double TimeMatMul(int threads) {
  SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
  Rng rng(threads);
  Matrix a(bench::Scaled(768), 256);
  Matrix b(256, 128);
  a.FillNormal(rng);
  b.FillNormal(rng);
  const int reps = bench::Scaled(20);
  WallTimer timer;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) sink += MatMul(a, b).Sum();
  const double seconds = timer.Seconds();
  HIGNN_CHECK(sink == sink);  // Keep the loop observable.
  SetGlobalThreadPoolThreads(1);
  return seconds;
}

double TimeKMeans(const Matrix& points, int threads) {
  SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
  KMeansConfig config;
  config.k = static_cast<int32_t>(points.rows()) / 5;
  config.algorithm = KMeansAlgorithm::kLloyd;
  config.max_iters = 8;
  WallTimer timer;
  HIGNN_CHECK(RunKMeans(points, config).ok());
  const double seconds = timer.Seconds();
  SetGlobalThreadPoolThreads(1);
  return seconds;
}

// Lloyd at hignn_bench's fit-large level-1 shape: a Gaussian mixture
// (embedding-like geometry, unlike the isotropic points above), K = n/5,
// a fixed 10 iterations.
constexpr int kLloydThreads[] = {1, 2, 4};
constexpr int32_t kLloydIterations = 10;

Matrix LloydPoints() {
  Rng rng(321);
  Matrix modes(300, 32);
  modes.FillNormal(rng);
  Matrix points(static_cast<size_t>(bench::Scaled(15000)), 32);
  for (size_t i = 0; i < points.rows(); ++i) {
    const float* mode = modes.row(rng.UniformInt(modes.rows()));
    for (size_t c = 0; c < points.cols(); ++c) {
      points(i, c) = 3.0f * mode[c] + static_cast<float>(rng.Normal(0.0, 1.0));
    }
  }
  return points;
}

struct LloydTiming {
  double seconds = 0.0;
  double ns_per_distance = 0.0;
  double exact_per_point = 0.0;
};

LloydTiming TimeLloyd(const Matrix& points, int32_t k, int threads) {
  SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
  KMeansConfig config;
  config.k = k;
  config.max_iters = kLloydIterations;
  config.tol = 0.0;
  WallTimer timer;
  auto result = RunKMeans(points, config);
  LloydTiming timing;
  timing.seconds = timer.Seconds();
  HIGNN_CHECK(result.ok());
  // hignn_bench's cluster.kmeans_ns_per_distance: n * K per iteration.
  timing.ns_per_distance =
      timing.seconds * 1e9 /
      (static_cast<double>(points.rows()) * k * result.value().iterations);
  timing.exact_per_point = obs::MetricsRegistry::Global()
                               .GetGauge("kmeans.exact_per_point")
                               .value();
  SetGlobalThreadPoolThreads(1);
  return timing;
}

std::string JsonLloyd(const Matrix& points, int32_t k,
                      const std::vector<LloydTiming>& runs) {
  std::string out = StrFormat(
      "  \"kmeans_lloyd\": {\"n\": %zu, \"d\": %zu, \"k\": %d, "
      "\"iterations\": %d",
      points.rows(), points.cols(), k, kLloydIterations);
  const auto per_thread = [&](const char* name, double LloydTiming::*field) {
    out += StrFormat(", \"%s\": {", name);
    for (size_t i = 0; i < runs.size(); ++i) {
      out += StrFormat("%s\"%d\": %.4f", i ? ", " : "", kLloydThreads[i],
                       runs[i].*field);
    }
    out += "}";
  };
  per_thread("seconds", &LloydTiming::seconds);
  per_thread("ns_per_distance", &LloydTiming::ns_per_distance);
  per_thread("exact_per_point", &LloydTiming::exact_per_point);
  return out + "}";
}

// Single-thread GEMM throughput on a forced kernel path. Isolates the
// SIMD uplift from thread scaling: this number is meaningful even on a
// 1-core host where the thread sweep above flat-lines.
double GemmGflops(simd::IsaPath path) {
  simd::ForcePathForTesting(path);
  SetGlobalThreadPoolThreads(1);
  Rng rng(7);
  Matrix a(static_cast<size_t>(bench::Scaled(384)), 256);
  Matrix b(256, 128);
  a.FillNormal(rng);
  b.FillNormal(rng);
  MatMul(a, b);  // Warm caches and the dispatch table.
  const int reps = bench::Scaled(30);
  WallTimer timer;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) sink += MatMul(a, b).Sum();
  const double seconds = timer.Seconds();
  HIGNN_CHECK(sink == sink);  // Keep the loop observable.
  simd::ForcePathForTesting(simd::Best());
  const double flops =
      2.0 * static_cast<double>(a.rows()) * 256.0 * 128.0 * reps;
  return flops / (seconds > 0.0 ? seconds : 1e-9) / 1e9;
}

// Median level-1 TrainStep (ms) on hignn_bench's fit-small graph: the
// Taobao1 preset at 2000 users x 800 items, seed 1, with the CLI's
// structural features and hignn_bench's SAGE configuration. At these
// sizes the step's kernels sit below the pool's dispatch cutoffs, so the
// 4-thread figure mostly measures what waking the workers costs.
constexpr int kSageStepThreads[] = {1, 4};
constexpr int32_t kSageWarmupSteps = 3;

std::vector<double> TimeSageSteps() {
  SyntheticConfig data = SyntheticConfig::Taobao1();
  data.num_users = 2000;
  data.num_items = 800;
  data.seed = 1;
  const SyntheticDataset dataset =
      SyntheticDataset::Generate(data).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  const Matrix left = StructuralFeatures(graph, true);
  const Matrix right = StructuralFeatures(graph, false);
  BipartiteSageConfig config;
  config.dims = {32, 32};
  config.fanouts = {10, 5};
  config.batch_size = 256;
  const int32_t steps = bench::Scaled(40);
  std::vector<double> median_ms;
  for (int threads : kSageStepThreads) {
    SetGlobalThreadPoolThreads(static_cast<size_t>(threads));
    BipartiteSage sage = BipartiteSage::Create(config, 3, 3).ValueOrDie();
    Rng rng(config.seed ^ 0xBEEFULL);
    Adam optimizer(config.learning_rate);
    std::vector<double> ms;
    for (int32_t step = 0; step < kSageWarmupSteps + steps; ++step) {
      WallTimer timer;
      HIGNN_CHECK(sage.TrainStep(graph, left, right, optimizer, rng).ok());
      if (step >= kSageWarmupSteps) ms.push_back(timer.Seconds() * 1e3);
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    median_ms.push_back(ms[ms.size() / 2]);
  }
  SetGlobalThreadPoolThreads(1);
  return median_ms;
}

// ns per element of simd::Tanh over 2^16 N(0, 2) activations (the
// update layers' pre-activation range) on the scalar and dispatched
// paths, and of the host libm's std::tanh over the same inputs. Each rep
// restores the inputs first; the copy is in every figure alike.
struct TanhTiming {
  double libm = 0.0;
  double scalar = 0.0;
  double simd = 0.0;
};

TanhTiming TimeTanh() {
  constexpr size_t kElements = size_t{1} << 16;
  const int reps = bench::Scaled(200);
  std::vector<float> input(kElements);
  Rng rng(11);
  for (float& x : input) x = static_cast<float>(rng.Normal(0.0, 2.0));
  std::vector<float> work(kElements);
  double sink = 0.0;
  const auto ns_per_element = [&](const auto& kernel) {
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      WallTimer timer;
      for (int r = 0; r < reps; ++r) {
        work = input;
        kernel(work);
        sink += work[kElements / 2];
      }
      const double ns = timer.Seconds() * 1e9 /
                        (static_cast<double>(kElements) * reps);
      best = trial == 0 ? ns : std::min(best, ns);
    }
    return best;
  };
  TanhTiming timing;
  timing.libm = ns_per_element([](std::vector<float>& x) {
    for (float& v : x) v = std::tanh(v);
  });
  const auto dispatched = [](std::vector<float>& x) {
    simd::Tanh(x.data(), x.size());
  };
  simd::ForcePathForTesting(simd::IsaPath::kScalar);
  timing.scalar = ns_per_element(dispatched);
  simd::ForcePathForTesting(simd::Best());
  timing.simd = ns_per_element(dispatched);
  HIGNN_CHECK(sink == sink);  // Keep the loops observable.
  return timing;
}

bool SameAssignments(const HignnModel& a, const HignnModel& b) {
  if (a.num_levels() != b.num_levels()) return false;
  for (int32_t l = 0; l < a.num_levels(); ++l) {
    const auto& la = a.levels()[static_cast<size_t>(l)];
    const auto& lb = b.levels()[static_cast<size_t>(l)];
    if (la.left_assignment != lb.left_assignment ||
        la.right_assignment != lb.right_assignment ||
        !AllClose(la.left_embeddings, lb.left_embeddings, 0.0f) ||
        !AllClose(la.right_embeddings, lb.right_embeddings, 0.0f)) {
      return false;
    }
  }
  return true;
}

std::string JsonTimings(const char* name, const std::vector<double>& secs) {
  std::string out = StrFormat("  \"%s_seconds\": {", name);
  for (size_t i = 0; i < secs.size(); ++i) {
    out += StrFormat("%s\"%d\": %.4f", i ? ", " : "", kThreadCounts[i],
                     secs[i]);
  }
  out += "},\n";
  out += StrFormat("  \"%s_speedup_vs_1\": {", name);
  for (size_t i = 0; i < secs.size(); ++i) {
    out += StrFormat("%s\"%d\": %.3f", i ? ", " : "", kThreadCounts[i],
                     secs[i] > 0.0 ? secs[0] / secs[i] : 0.0);
  }
  out += "}";
  return out;
}

int Run() {
  bench::PrintHeader(
      "Thread-scaling: Hignn::Fit, MatMul and K-means vs worker count",
      "Single-host analogue of the paper's 300-worker deployment (Sec. VI)");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("cpu = %s\n", bench::CpuModelName().c_str());
  std::printf("hardware_concurrency = %u\n", hw);
  std::printf("simd_path = %s\n\n", simd::PathName());

  const SyntheticDataset dataset = MakeWorld();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  std::printf("workload: %d users x %d items, %lld edges\n\n",
              graph.num_left(), graph.num_right(),
              static_cast<long long>(graph.num_edges()));

  Matrix kmeans_points(static_cast<size_t>(bench::Scaled(2000)), 32);
  {
    Rng rng(123);
    kmeans_points.FillNormal(rng);
  }

  std::vector<double> fit_secs;
  std::vector<double> matmul_secs;
  std::vector<double> kmeans_secs;
  HignnModel model_1;
  HignnModel model_4;
  TablePrinter table({"threads", "fit (s)", "fit x", "matmul (s)",
                      "matmul x", "kmeans (s)", "kmeans x"});
  for (int threads : kThreadCounts) {
    HignnModel* capture =
        threads == 1 ? &model_1 : (threads == 4 ? &model_4 : nullptr);
    fit_secs.push_back(TimeFit(dataset, graph, threads, capture));
    matmul_secs.push_back(TimeMatMul(threads));
    kmeans_secs.push_back(TimeKMeans(kmeans_points, threads));
    table.AddRow({StrFormat("%d", threads),
                  StrFormat("%.2f", fit_secs.back()),
                  StrFormat("%.2fx", fit_secs[0] / fit_secs.back()),
                  StrFormat("%.3f", matmul_secs.back()),
                  StrFormat("%.2fx", matmul_secs[0] / matmul_secs.back()),
                  StrFormat("%.3f", kmeans_secs.back()),
                  StrFormat("%.2fx", kmeans_secs[0] / kmeans_secs.back())});
  }
  std::printf("%s\n", table.ToString().c_str());

  const Matrix lloyd_points = LloydPoints();
  const int32_t lloyd_k =
      std::max<int32_t>(1, static_cast<int32_t>(lloyd_points.rows()) / 5);
  std::vector<LloydTiming> lloyd;
  TablePrinter lloyd_table(
      {"threads", "lloyd (s)", "ns/distance", "exact/point"});
  for (int threads : kLloydThreads) {
    lloyd.push_back(TimeLloyd(lloyd_points, lloyd_k, threads));
    lloyd_table.AddRow({StrFormat("%d", threads),
                        StrFormat("%.3f", lloyd.back().seconds),
                        StrFormat("%.3f", lloyd.back().ns_per_distance),
                        StrFormat("%.2f", lloyd.back().exact_per_point)});
  }
  std::printf("Lloyd, n=%zu d=%zu K=%d, %d iterations:\n%s\n",
              lloyd_points.rows(), lloyd_points.cols(), lloyd_k,
              kLloydIterations, lloyd_table.ToString().c_str());

  const double scalar_gflops = GemmGflops(simd::IsaPath::kScalar);
  const double simd_gflops = GemmGflops(simd::Best());
  std::printf("single-thread GEMM: scalar %.2f GFLOP/s, %s %.2f GFLOP/s "
              "(%.2fx)\n",
              scalar_gflops, simd::PathName(), simd_gflops,
              scalar_gflops > 0.0 ? simd_gflops / scalar_gflops : 0.0);

  const std::vector<double> sage_step_ms = TimeSageSteps();
  std::printf("level-1 SAGE TrainStep (fit-small graph): %.2f ms at 1 "
              "thread, %.2f ms at 4 threads\n",
              sage_step_ms[0], sage_step_ms[1]);

  const TanhTiming tanh_timing = TimeTanh();
  std::printf("tanh ns/element: std::tanh %.2f, scalar port %.2f, %s %.2f\n",
              tanh_timing.libm, tanh_timing.scalar, simd::PathName(),
              tanh_timing.simd);

  const bool deterministic = SameAssignments(model_1, model_4);
  std::printf("1-thread vs 4-thread Fit: %s\n",
              deterministic
                  ? "identical assignments and embeddings (deterministic)"
                  : "MISMATCH — determinism contract violated!");

  std::string json = "{\n";
  json += bench::JsonHostFields();
  json += StrFormat("  \"scale\": %.2f,\n", bench::Scale());
  json += StrFormat("  \"workload\": {\"users\": %d, \"items\": %d, "
                    "\"edges\": %lld},\n",
                    graph.num_left(), graph.num_right(),
                    static_cast<long long>(graph.num_edges()));
  json += JsonTimings("fit", fit_secs) + ",\n";
  json += JsonTimings("matmul", matmul_secs) + ",\n";
  json += JsonTimings("kmeans", kmeans_secs) + ",\n";
  json += JsonLloyd(lloyd_points, lloyd_k, lloyd) + ",\n";
  json += StrFormat(
      "  \"gemm_single_thread\": {\"scalar_gflops\": %.3f, "
      "\"simd_gflops\": %.3f, \"simd_path\": \"%s\", \"speedup\": %.3f},\n",
      scalar_gflops, simd_gflops, simd::PathName(),
      scalar_gflops > 0.0 ? simd_gflops / scalar_gflops : 0.0);
  json += StrFormat(
      "  \"sage_step\": {\"graph\": \"fit-small\", \"level\": 1, "
      "\"median_ms\": {\"1\": %.3f, \"4\": %.3f}},\n",
      sage_step_ms[0], sage_step_ms[1]);
  json += StrFormat(
      "  \"tanh_ns_per_elt\": {\"std_tanh\": %.3f, \"scalar\": %.3f, "
      "\"simd\": %.3f, \"simd_path\": \"%s\"},\n",
      tanh_timing.libm, tanh_timing.scalar, tanh_timing.simd,
      simd::PathName());
  json += StrFormat("  \"deterministic_1_vs_4\": %s\n",
                    deterministic ? "true" : "false");
  json += "}\n";
  if (Status status = AtomicWriteTextFile("BENCH_parallel.json", json);
      !status.ok()) {
    std::fprintf(stderr, "failed to write BENCH_parallel.json: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_parallel.json\n");
  return deterministic ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
