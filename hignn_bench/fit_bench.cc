// Fit workloads: Hignn::Fit (Algorithm 1) on seeded Taobao1-preset click
// graphs, loaded the way `hignn fit` loads a TSV edge list. The traced
// pass re-drives Algorithm 1 through the public layer calls so each
// layer's time can be read off bench-side spans.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/hignn.h"
#include "core/serialization.h"
#include "core/training_monitor.h"
#include "data/synthetic.h"
#include "graph/coarsen.h"
#include "graph/sampling.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "sage/bipartite_sage.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace hignn::bench {
namespace {

constexpr int32_t kSetupReps = 11;
constexpr int32_t kProbeSteps = 25;  // timed TrainSteps per exponent point

struct FitSize {
  int32_t users = 0;
  int32_t items = 0;
  int32_t steps = 0;
};

// Fixed sizes (HIGNN_BENCH_SCALE does not apply). fit-small keeps
// k-means and coarsening under 2% of Fit, so it isolates the SAGE step;
// fit-large is where Lloyd at K = n/5 and per-step O(|V|) work dominate.
// fit-large is sized so a 15 s window holds three Fits (at 30k users one
// Fit took ~15 s, a single sample per run); k-means is still ~60% of it.
FitSize SizeOf(const std::string& workload, bool toy) {
  if (toy) return {200, 80, 20};
  if (workload == "fit-large") return {15000, 6000, 30};
  return {2000, 800, 200};
}

std::string FixturePath(const RunOptions& options,
                        const std::string& workload) {
  return options.cache_dir + "/" + workload + (options.toy ? "-toy" : "") +
         ".tsv";
}

HignnConfig ConfigOf(const FitSize& size) {
  HignnConfig config;
  config.levels = 3;
  config.sage.dims = {32, 32};
  config.sage.fanouts = {10, 5};
  config.sage.batch_size = 256;
  config.sage.train_steps = size.steps;
  // A fixed Lloyd budget (tol 0 never stops early): how many iterations
  // converge depends on the seeded graph, and at fit-large it moved Fit
  // by +-15% between seeds. Seeds should vary the data, not the work.
  config.kmeans.max_iters = 10;
  config.kmeans.tol = 0.0;
  config.num_threads = BenchThreads();
  return config;
}

struct FitInputs {
  BipartiteGraph graph;
  Matrix left;
  Matrix right;
};

// The CLI's structural features: [log1p degree, log1p weighted degree, 1].
Matrix StructuralFeatures(const BipartiteGraph& graph, bool left) {
  const int32_t n = left ? graph.num_left() : graph.num_right();
  Matrix features(static_cast<size_t>(n), 3);
  for (int32_t v = 0; v < n; ++v) {
    const double degree = left ? graph.LeftDegree(v) : graph.RightDegree(v);
    const double weighted =
        left ? graph.LeftWeightedDegree(v) : graph.RightWeightedDegree(v);
    features(static_cast<size_t>(v), 0) =
        static_cast<float>(std::log1p(degree));
    features(static_cast<size_t>(v), 1) =
        static_cast<float>(std::log1p(weighted));
    features(static_cast<size_t>(v), 2) = 1.0f;
  }
  return features;
}

Result<FitInputs> LoadInputs(const std::string& path) {
  FitInputs inputs;
  HIGNN_ASSIGN_OR_RETURN(inputs.graph, LoadBipartiteGraphTsv(path));
  inputs.left = StructuralFeatures(inputs.graph, true);
  inputs.right = StructuralFeatures(inputs.graph, false);
  return inputs;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// Digest of every level's assignments and embedding bytes.
uint64_t ModelDigest(const HignnModel& model) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const HignnLevel& level : model.levels()) {
    for (const std::vector<int32_t>* a :
         {&level.left_assignment, &level.right_assignment}) {
      hash = Fnv1a(hash, a->data(), a->size() * sizeof(int32_t));
    }
    for (const Matrix* m : {&level.left_embeddings, &level.right_embeddings}) {
      hash = Fnv1a(hash, m->data(), m->size() * sizeof(float));
    }
  }
  return hash;
}

bool AssignmentsInRange(const HignnModel& model) {
  for (const HignnLevel& level : model.levels()) {
    for (int32_t c : level.left_assignment) {
      if (c < 0 || c >= level.num_left_clusters) return false;
    }
    for (int32_t c : level.right_assignment) {
      if (c < 0 || c >= level.num_right_clusters) return false;
    }
  }
  return true;
}

bool LossesFinite(const HignnModel& model) {
  for (const HignnLevel& level : model.levels()) {
    if (!std::isfinite(level.train_loss)) return false;
  }
  return true;
}

// Hignn::Fit's cluster count for a side with n vertices (core/hignn.cc).
int32_t DecayedK(int32_t n, const HignnConfig& config) {
  const int32_t k = static_cast<int32_t>(
      std::llround(static_cast<double>(n) / config.alpha));
  return std::max(config.min_clusters, std::min(k, n));
}

struct KMeansCall {
  int64_t n = 0;
  int64_t k = 0;
  int32_t iterations = 0;
  int32_t reseeds = 0;
  double seconds = 0.0;
};

struct TracedFit {
  HignnModel model;
  int32_t root = -1;
  bool rollback = false;  ///< Fit would have rolled back; digests differ
  std::vector<KMeansCall> kmeans;
  int64_t coarsen_edges_in = 0;
  int64_t coarsen_edges_out = 0;
};

// Algorithm 1 through public calls, one span per call, mirroring
// Hignn::Fit's seeding and copies (core/hignn.cc) so the resulting model
// is bitwise the one Fit returns.
Result<TracedFit> RunTracedFit(const FitInputs& inputs,
                               const HignnConfig& config, SpanLog& log,
                               int32_t op) {
  SetGlobalThreadPoolThreads(static_cast<size_t>(config.num_threads));
  TracedFit out;
  ScopedSpan root(log, "core.fit", op, 0, -1);
  out.root = root.id();
  BipartiteGraph graph = inputs.graph;
  Matrix left = inputs.left;
  Matrix right = inputs.right;
  std::vector<HignnLevel> levels;
  for (int32_t l = 1; l <= config.levels; ++l) {
    ScopedSpan level_span(log, "core.level", op, l, root.id());
    const int32_t parent = level_span.id();
    BipartiteSageConfig sage_config = config.sage;
    sage_config.seed = config.seed + static_cast<uint64_t>(l) * 7919;
    Result<BipartiteSage> created = [&] {
      ScopedSpan span(log, "sage.create", op, l, parent);
      return BipartiteSage::Create(sage_config,
                                   static_cast<int32_t>(left.cols()),
                                   static_cast<int32_t>(right.cols()));
    }();
    HIGNN_ASSIGN_OR_RETURN(BipartiteSage sage, std::move(created));

    double loss = 0.0;
    {
      ScopedSpan train(log, "sage.train", op, l, parent);
      const TrainingMonitorConfig monitor_config;
      TrainingMonitor monitor(monitor_config);
      Rng rng(sage_config.seed ^ 0xBEEFULL);
      Adam optimizer(sage_config.learning_rate);
      optimizer.set_weight_decay(sage_config.weight_decay);
      optimizer.set_clip_norm(monitor_config.clip_norm);
      double tail_sum = 0.0;
      int64_t tail_count = 0;
      const int32_t tail_start = sage_config.train_steps * 9 / 10;
      for (int32_t step = 0; step < sage_config.train_steps; ++step) {
        ScopedSpan span(log, "sage.train_step", op, l, train.id());
        HIGNN_ASSIGN_OR_RETURN(
            double step_loss,
            sage.TrainStep(graph, left, right, optimizer, rng, &monitor));
        if (monitor.ObserveLoss(step_loss) == HealthVerdict::kRollback) {
          out.rollback = true;
        }
        if (step >= tail_start) {
          tail_sum += step_loss;
          ++tail_count;
        }
      }
      loss = tail_count > 0 ? tail_sum / static_cast<double>(tail_count) : 0.0;
    }

    SageEmbeddings embeddings;
    {
      ScopedSpan span(log, "sage.embed_all", op, l, parent);
      HIGNN_ASSIGN_OR_RETURN(embeddings, sage.EmbedAll(graph, left, right));
    }

    auto cluster = [&](const Matrix& points, int32_t n,
                       uint64_t seed) -> Result<KMeansResult> {
      KMeansConfig kmeans = config.kmeans;
      kmeans.seed = seed;
      kmeans.k = DecayedK(n, config);
      ScopedSpan span(log, "cluster.kmeans", op, l, parent);
      obs::Stopwatch timer;
      Result<KMeansResult> result = RunKMeans(points, kmeans);
      if (result.ok()) {
        out.kmeans.push_back({n, std::min(kmeans.k, n),
                              result.value().iterations,
                              result.value().reseeds, timer.Seconds()});
      }
      return result;
    };
    const uint64_t kmeans_seed =
        config.seed + static_cast<uint64_t>(l) * 104729;
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult left_clusters,
        cluster(embeddings.left, graph.num_left(), kmeans_seed + 1));
    HIGNN_ASSIGN_OR_RETURN(
        KMeansResult right_clusters,
        cluster(embeddings.right, graph.num_right(), kmeans_seed + 2));

    HignnLevel level;
    level.graph = graph;
    level.left_embeddings = embeddings.left;
    level.right_embeddings = embeddings.right;
    level.left_assignment = left_clusters.assignment;
    level.right_assignment = right_clusters.assignment;
    level.num_left_clusters = DecayedK(graph.num_left(), config);
    level.num_right_clusters = DecayedK(graph.num_right(), config);
    level.train_loss = loss;

    if (l < config.levels) {
      ScopedSpan span(log, "graph.coarsen", op, l, parent);
      HIGNN_ASSIGN_OR_RETURN(
          CoarsenedGraph coarse,
          CoarsenBipartiteGraph(graph, embeddings.left, embeddings.right,
                                left_clusters.assignment,
                                level.num_left_clusters,
                                right_clusters.assignment,
                                level.num_right_clusters));
      out.coarsen_edges_in += graph.num_edges();
      out.coarsen_edges_out += coarse.graph.num_edges();
      graph = std::move(coarse.graph);
      left = std::move(coarse.left_features);
      right = std::move(coarse.right_features);
    }
    levels.push_back(std::move(level));
  }
  out.model = HignnModel::FromLevels(std::move(levels));
  return out;
}

// Sum of the program's own HIGNN_SPAN durations named `name`, in
// seconds, from the in-memory obs trace.
double ObsSpanSeconds(const std::string& trace_json, const std::string& name) {
  const std::string key = "{\"name\": \"" + name + "\"";
  int64_t total_us = 0;
  size_t pos = 0;
  while ((pos = trace_json.find(key, pos)) != std::string::npos) {
    const size_t dur = trace_json.find("\"dur\": ", pos);
    if (dur == std::string::npos) break;
    total_us += std::atoll(trace_json.c_str() + dur + 7);
    pos = dur;
  }
  return static_cast<double>(total_us) * 1e-6;
}

// Median TrainStep time (ms) of a fresh level-1 SAGE on `graph`.
Result<double> StepMillis(const FitInputs& inputs, const HignnConfig& config) {
  BipartiteSageConfig sage_config = config.sage;
  sage_config.seed = config.seed + 7919;
  HIGNN_ASSIGN_OR_RETURN(
      BipartiteSage sage,
      BipartiteSage::Create(sage_config,
                            static_cast<int32_t>(inputs.left.cols()),
                            static_cast<int32_t>(inputs.right.cols())));
  Rng rng(sage_config.seed ^ 0xBEEFULL);
  Adam optimizer(sage_config.learning_rate);
  std::vector<double> ms;
  for (int32_t step = 0; step < kProbeSteps + 3; ++step) {
    obs::Stopwatch timer;
    HIGNN_ASSIGN_OR_RETURN(
        double loss, sage.TrainStep(inputs.graph, inputs.left, inputs.right,
                                    optimizer, rng));
    (void)loss;
    if (step >= 3) ms.push_back(timer.Millis());
  }
  return Median(std::move(ms));
}

// The users [0, n/2) and their edges: the half-size point of the
// Sec. III-D step-cost slope.
FitInputs HalfGraph(const BipartiteGraph& graph) {
  const int32_t users = std::max(1, graph.num_left() / 2);
  BipartiteGraphBuilder builder(users, graph.num_right());
  for (int32_t u = 0; u < users; ++u) {
    const BipartiteGraph::NeighborSpan nbrs = graph.LeftNeighbors(u);
    for (size_t j = 0; j < nbrs.size; ++j) {
      HIGNN_CHECK(builder.AddEdge(u, nbrs.ids[j], nbrs.weights[j]).ok());
    }
  }
  FitInputs half;
  half.graph = builder.Build();
  half.left = StructuralFeatures(half.graph, true);
  half.right = StructuralFeatures(half.graph, false);
  return half;
}

void ProbeKernels(const RunOptions& options, Report& report) {
  // Single-thread GEMM at the SAGE update-layer shape: 256 edges x (1 + 2
  // negatives) targets x fanout 10 rows, CONCAT(self, agg) = 64 -> 32.
  SetGlobalThreadPoolThreads(1);
  Rng rng(options.seed);
  const size_t rows = options.toy ? 768 : 7680;
  Matrix a(rows, 64), b(64, 32);
  a.FillNormal(rng);
  b.FillNormal(rng);
  const Summary sage_gemm =
      TimePerCallUs(9, [&] { Consume(MatMul(a, b).data()[0]); });
  const double sage_flop = 2.0 * static_cast<double>(rows) * 64 * 32;
  report.Add("nn.matmul_gflops", sage_flop / (sage_gemm.median * 1e3),
             "GFLOP/s", sage_gemm.n);
  const size_t cube = options.toy ? 128 : 512;
  Matrix p(cube, cube), q(cube, cube);
  p.FillNormal(rng);
  q.FillNormal(rng);
  const Summary peak =
      TimePerCallUs(5, [&] { Consume(MatMul(p, q).data()[0]); });
  const double peak_flop = 2.0 * static_cast<double>(cube * cube * cube);
  report.Add("nn.gemm_peak_gflops", peak_flop / (peak.median * 1e3),
             "GFLOP/s", peak.n);
  SetGlobalThreadPoolThreads(static_cast<size_t>(BenchThreads()));

  // STREAM triad a = b + s * c: 2 reads + 1 write of 4-byte floats.
  const size_t n = options.toy ? (1u << 18) : (1u << 22);
  std::vector<float> x(n, 0.0f), y(n, 1.0f), z(n, 2.0f);
  const Summary triad = TimePerCallUs(9, [&] {
    for (size_t i = 0; i < n; ++i) x[i] = y[i] + 3.0f * z[i];
    Consume(x[n / 2]);
  });
  report.Add("nn.triad_gbs",
             12.0 * static_cast<double>(n) / (triad.median * 1e3), "GB/s",
             triad.n);
}

}  // namespace

bool IsFitWorkload(const std::string& workload) {
  return workload == "fit-small" || workload == "fit-large";
}

Status PrepareFitFixture(const RunOptions& options,
                         const std::string& workload) {
  const FitSize size = SizeOf(workload, options.toy);
  SyntheticConfig data = SyntheticConfig::Taobao1();
  data.num_users = size.users;
  data.num_items = size.items;
  data.seed = options.seed;
  HIGNN_ASSIGN_OR_RETURN(SyntheticDataset dataset,
                         SyntheticDataset::Generate(data));
  return SaveBipartiteGraphTsv(dataset.BuildTrainGraph(),
                               FixturePath(options, workload));
}

void RunFitWorkload(const RunOptions& options, Report& report) {
  const FitSize size = SizeOf(options.workload, options.toy);
  const std::string path = FixturePath(options, options.workload);

  // Set-up as `hignn fit` does it: TSV parse + structural features.
  std::vector<double> setup_s;
  FitInputs inputs;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    obs::Stopwatch timer;
    Result<FitInputs> loaded = LoadInputs(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "fixture %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      report.Check("fit.fixture_loaded", false);
      return;
    }
    setup_s.push_back(timer.Seconds());
    inputs = std::move(loaded).value();
  }

  const HignnConfig config = ConfigOf(size);
  SetGlobalThreadPoolThreads(static_cast<size_t>(config.num_threads));
  std::vector<double> fit_s;
  uint64_t first_digest = 0;
  bool digest_stable = true;
  bool in_range = true;
  bool finite = true;
  obs::Stopwatch window;
  // Another Fit starts only while it is expected to end inside the window.
  while (fit_s.empty() || window.Seconds() + fit_s.back() <= options.seconds) {
    ++report.attempted;
    obs::Stopwatch timer;
    Result<HignnModel> model =
        Hignn::Fit(inputs.graph, inputs.left, inputs.right, config);
    const double seconds = timer.Seconds();
    if (!model.ok()) {
      std::fprintf(stderr, "fit failed: %s\n",
                   model.status().ToString().c_str());
      ++report.failed;
      break;
    }
    const uint64_t digest = ModelDigest(model.value());
    if (fit_s.empty()) first_digest = digest;
    digest_stable = digest_stable && digest == first_digest;
    in_range = in_range && AssignmentsInRange(model.value());
    finite = finite && LossesFinite(model.value());
    fit_s.push_back(seconds);
  }
  report.Check("fit.digest_stable", digest_stable);
  report.Check("fit.assignments_in_range", in_range);
  report.Check("fit.losses_finite", finite);
  if (fit_s.empty()) return;

  const Summary fit = Summarize(fit_s);
  double total_s = 0.0;
  for (double s : fit_s) total_s += s;
  report.AddSummary("setup_s", Summarize(setup_s), "s");
  report.AddSummary("latency_p50_ms", fit, "ms", 1e3);
  report.AddSummary("latency_p99_ms", fit, "ms", 1e3, &Summary::p99);
  report.Add("ops_per_s", static_cast<double>(fit_s.size()) / total_s, "1/s",
             fit.n);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Detail("fit", StrFormat(
      "{\"users\": %d, \"items\": %d, \"edges\": %lld, \"steps\": %d, "
      "\"threads\": %d, \"digest\": \"%016llx\"}",
      inputs.graph.num_left(), inputs.graph.num_right(),
      static_cast<long long>(inputs.graph.num_edges()), size.steps,
      config.num_threads, static_cast<unsigned long long>(first_digest)));
}

void RunFitLayers(const RunOptions& options, const std::string& workload,
                  bool own_workload, SpanLog& spans, Report& report) {
  const FitSize size = SizeOf(workload, options.toy);
  Result<FitInputs> loaded = LoadInputs(FixturePath(options, workload));
  if (!loaded.ok()) {
    std::fprintf(stderr, "fit fixture: %s\n",
                 loaded.status().ToString().c_str());
    report.Check("fit.fixture_loaded", false);
    return;
  }
  const FitInputs inputs = std::move(loaded).value();
  const HignnConfig config = ConfigOf(size);

  // Untraced reference Fits before and after the traced pass (Fit's wall
  // time drifts within a process, so the pass is compared with their
  // mean); the first also gives the digest the pass must reproduce.
  SetGlobalThreadPoolThreads(static_cast<size_t>(config.num_threads));
  double fit_s = 0.0;
  auto reference_fit = [&] {
    ++report.attempted;
    obs::Stopwatch timer;
    Result<HignnModel> model =
        Hignn::Fit(inputs.graph, inputs.left, inputs.right, config);
    fit_s += timer.Seconds() / 2.0;
    return model;
  };
  Result<HignnModel> reference = reference_fit();
  obs::ResetTrace();  // keep only the traced pass's HIGNN_SPANs
  ++report.attempted;
  Result<TracedFit> traced = RunTracedFit(inputs, config, spans, /*op=*/1);
  const std::string obs_trace = obs::TraceJson();
  const bool second_ok = reference_fit().ok();
  if (!reference.ok() || !traced.ok() || !second_ok) {
    std::fprintf(stderr, "fit failed: %s / %s\n",
                 reference.status().ToString().c_str(),
                 traced.status().ToString().c_str());
    report.failed += (reference.ok() ? 0 : 1) + (traced.ok() ? 0 : 1) +
                     (second_ok ? 0 : 1);
    report.Check("fit.traced_pass_ran", false);
    return;
  }
  const TracedFit& pass = traced.value();
  report.Check("fit.assignments_in_range", AssignmentsInRange(pass.model));
  report.Check("fit.losses_finite", LossesFinite(pass.model));
  // A traced pass that no longer reproduces Fit is reported as diverged:
  // its per-layer split describes some other computation.
  const bool diverged = pass.rollback || ModelDigest(pass.model) !=
                                             ModelDigest(reference.value());
  const std::vector<SpanLog::Span> all = spans.Snapshot();

  std::vector<std::vector<double>> step_ms(
      static_cast<size_t>(config.levels + 1));
  double train_step_s = 0.0, embed_s = 0.0, coarsen_s = 0.0, kmeans_s = 0.0;
  double level_self_s = 0.0, level_total_s = 0.0;
  for (int32_t id = 0; id < static_cast<int32_t>(all.size()); ++id) {
    const SpanLog::Span& s = all[static_cast<size_t>(id)];
    if (s.op != 1) continue;
    const std::string name = s.name;
    const double seconds = SpanLog::Seconds(all, id);
    if (name == "sage.train_step") {
      step_ms[static_cast<size_t>(s.level)].push_back(seconds * 1e3);
      train_step_s += seconds;
    } else if (name == "sage.embed_all") {
      embed_s += seconds;
    } else if (name == "graph.coarsen") {
      coarsen_s += seconds;
    } else if (name == "cluster.kmeans") {
      kmeans_s += seconds;
    } else if (name == "core.level") {
      level_self_s += SpanLog::SelfSeconds(all, id);
      level_total_s += seconds;
    }
  }
  const double traced_s = SpanLog::Seconds(all, pass.root);

  report.Add("core.fit.self_s", level_self_s, "s", config.levels);
  for (int32_t l = 1; l <= config.levels; ++l) {
    report.AddSummary(StrFormat("sage.train_step_ms.l%d", l),
                      Summarize(step_ms[static_cast<size_t>(l)]), "ms");
  }
  report.Add("sage.train_step_s", train_step_s, "s");
  report.Add("sage.embed_all_s", embed_s, "s", config.levels);
  report.Add("sage.forward_s", ObsSpanSeconds(obs_trace, "sage.forward"), "s");
  report.Add("sage.backward_s", ObsSpanSeconds(obs_trace, "sage.backward"),
             "s");
  report.Add("sage.batch_assembly_s",
             ObsSpanSeconds(obs_trace, "sage.batch_assembly"), "s");
  report.Add("graph.coarsen_s", coarsen_s, "s", config.levels - 1);
  const int64_t edges_in = std::max<int64_t>(1, pass.coarsen_edges_in);
  report.Add("graph.coarsen_edge_ratio",
             static_cast<double>(pass.coarsen_edges_out) /
                 static_cast<double>(edges_in),
             "fraction", config.levels - 1);

  int64_t iterations = 0, reseeds = 0;
  double distances = 0.0;
  for (const KMeansCall& call : pass.kmeans) {
    iterations += call.iterations;
    reseeds += call.reseeds;
    distances += static_cast<double>(call.n) * static_cast<double>(call.k) *
                 call.iterations;
  }
  const int64_t calls = static_cast<int64_t>(pass.kmeans.size());
  report.Add("cluster.kmeans_s", kmeans_s, "s", calls);
  report.Add("cluster.kmeans_iters", static_cast<double>(iterations), "count",
             calls);
  report.Add("cluster.kmeans_ns_per_distance",
             kmeans_s * 1e9 / std::max(1.0, distances), "ns", calls);
  report.Add("cluster.kmeans_reseeds", static_cast<double>(reseeds), "count",
             calls);
  report.Add("obs.trace_coverage_frac", level_total_s / fit_s, "fraction");
  if (own_workload) {
    report.Add("obs.trace_overhead_frac", traced_s / fit_s - 1.0, "fraction");
  }

  // Graph-layer probes on the level-1 (input) graph.
  {
    ScopedSpan span(spans, "graph.negative_sampler_build", 1, 1, -1);
    const Summary build = TimePerCallUs(
        9, [&] { NegativeSampler sampler(inputs.graph); (void)sampler; });
    report.AddSummary("graph.negative_sampler_build_ms", build, "ms", 1e-3);
  }
  {
    ScopedSpan span(spans, "graph.sample_batch", 1, 1, -1);
    Rng rng(options.seed);
    std::vector<int32_t> targets(256);
    for (int32_t& t : targets) {
      t = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(inputs.graph.num_left())));
    }
    const NeighborSampler sampler(inputs.graph);
    const Summary sample = TimePerCallUs(15, [&] {
      Consume(static_cast<double>(
          sampler.SampleBatch(Side::kLeft, targets, 10, rng).size()));
    });
    report.AddSummary("graph.sample_batch_us", sample, "us");
  }
  {
    ScopedSpan span(spans, "nn.kernels", 1, 0, -1);
    ProbeKernels(options, report);
  }

  // Sec. III-D: the SAGE step should cost the same at any |E|; Lloyd
  // k-means at K = n / alpha costs O(n^2) per iteration.
  {
    ScopedSpan span(spans, "complexity.ladder", 1, 1, -1);
    const FitInputs half = HalfGraph(inputs.graph);
    Result<double> full_ms = StepMillis(inputs, config);
    Result<double> half_ms = StepMillis(half, config);
    const double edge_ratio = static_cast<double>(inputs.graph.num_edges()) /
                              static_cast<double>(half.graph.num_edges());
    report.Add("complexity.sage_step_exponent",
               full_ms.ok() && half_ms.ok()
                   ? std::log(full_ms.value() / half_ms.value()) /
                         std::log(edge_ratio)
                   : NAN,
               "1", 2);

    const Matrix& z = pass.model.levels().front().left_embeddings;
    const KMeansCall& full = pass.kmeans.front();  // level 1, left side
    const size_t half_n = z.rows() / 2;
    Matrix half_z(half_n, z.cols());
    std::copy(z.data(), z.data() + half_n * z.cols(), half_z.data());
    KMeansConfig kmeans = config.kmeans;
    kmeans.seed = config.seed + 104729 + 1;
    kmeans.k = DecayedK(static_cast<int32_t>(half_n), config);
    obs::Stopwatch timer;
    Result<KMeansResult> half_run = RunKMeans(half_z, kmeans);
    const double half_s = timer.Seconds();
    double exponent = NAN;
    if (half_run.ok() && half_run.value().iterations > 0 &&
        full.iterations > 0) {
      const double full_per_iter = full.seconds / full.iterations;
      const double half_per_iter = half_s / half_run.value().iterations;
      exponent = std::log(full_per_iter / half_per_iter) /
                 std::log(static_cast<double>(full.n) /
                          static_cast<double>(half_n));
    }
    report.Add("complexity.kmeans_exponent", exponent, "1", 2);
  }

  report.Detail("fit_trace", StrFormat(
      "{\"workload\": \"%s\", \"fit_s\": %s, \"traced_s\": %s, "
      "\"diverged\": %s, \"edges\": %lld}",
      workload.c_str(), Report::Number(fit_s).c_str(),
      Report::Number(traced_s).c_str(), diverged ? "true" : "false",
      static_cast<long long>(inputs.graph.num_edges())));
}

}  // namespace hignn::bench
