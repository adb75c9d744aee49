// Serve workloads: the online stack of `hignn_serve` in one process —
// StoreManager -> ScoringServer (MicroBatcher, PredictionEngine,
// ClusterTreeIndex) — driven over loopback TCP by closed-loop
// ScoringClients. The store is the planted-hierarchy world, the fixture
// whose score landscape the retrieval index can route at 100k items.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/planted.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predict/recommender.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace hignn::bench {
namespace {

constexpr int32_t kPairsPerRequest = 8;
constexpr int32_t kTopK = 10;
constexpr int32_t kSetupReps = 5;
constexpr int32_t kReloadEvery = 1000;  // connection 0's own requests
constexpr int32_t kRecallUsers = 16;  // an exact scan of 100k items is ~0.25 s
constexpr int32_t kParityEvery = 100;

struct ServeSize {
  int32_t users = 0;
  int32_t items = 0;
  double warmup_s = 0.0;
  double probe_s = 0.0;  ///< window of each concurrent probe
  int32_t probe_calls = 0;
};

ServeSize SizeOf(bool toy) {
  if (toy) return {400, 2000, 0.2, 0.2, 40};
  return {20000, 100000, 2.0, 1.5, 400};
}

std::string FixturePath(const RunOptions& options) {
  return options.cache_dir + (options.toy ? "/serve-toy" : "/serve") +
         ".hgnnstore";
}

/// What one closed-loop operation reports to the loop.
enum class Outcome { kFailed, kTimed, kUntimed };

struct LoopResult {
  std::vector<double> latency_us;  ///< timed ops completed in the window
  int64_t attempted = 0;           ///< every op, warm-up included
  int64_t failed = 0;
  int64_t window_ops = 0;          ///< ops of any kind started in the window
};

// Runs `callers` closed-loop callers: each issues its next op only after
// the previous one returned. Ops in the first `warmup_s` are attempted
// and checked but not measured. A caller stops at its first failure.
template <typename Op>
LoopResult ClosedLoop(int32_t callers, double warmup_s, double seconds,
                      Op&& op) {
  std::vector<LoopResult> per(static_cast<size_t>(callers));
  const int64_t start = obs::NowMicros();
  const int64_t window_start = start + static_cast<int64_t>(warmup_s * 1e6);
  const int64_t end = window_start + static_cast<int64_t>(seconds * 1e6);
  // hignn-lint: allow(naked-thread) closed-loop load callers block on sockets
  std::vector<std::thread> threads;
  for (int32_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per[static_cast<size_t>(c)];
      for (int64_t t = obs::NowMicros(); t < end; t = obs::NowMicros()) {
        ++mine.attempted;
        const Outcome outcome = op(c);
        const int64_t done = obs::NowMicros();
        if (outcome == Outcome::kFailed) {
          ++mine.failed;
          break;
        }
        if (t < window_start) continue;
        ++mine.window_ops;
        if (outcome == Outcome::kTimed) {
          mine.latency_us.push_back(static_cast<double>(done - t));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult all;
  for (LoopResult& mine : per) {
    all.latency_us.insert(all.latency_us.end(), mine.latency_us.begin(),
                          mine.latency_us.end());
    all.attempted += mine.attempted;
    all.failed += mine.failed;
    all.window_ops += mine.window_ops;
  }
  return all;
}

/// Catalog shape of the served store; fixed across reloads of one file.
struct Catalog {
  int32_t users = 0;
  int32_t items = 0;
};

std::vector<ScoreRequest> RandomPairs(Rng& rng, const Catalog& catalog,
                                      int32_t count) {
  std::vector<ScoreRequest> pairs(static_cast<size_t>(count));
  for (ScoreRequest& p : pairs) {
    p.user = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(catalog.users)));
    p.item = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(catalog.items)));
  }
  return pairs;
}

bool ScoresValid(const std::vector<float>& scores, size_t expected) {
  if (scores.size() != expected) return false;
  for (float s : scores) {
    if (!std::isfinite(s) || s < 0.0f || s > 1.0f) return false;
  }
  return true;
}

// k items, ids in range, in TopKByScore order: score descending, ties by
// ascending item id.
bool TopKValid(const std::vector<Recommendation>& recs, int32_t num_items) {
  if (recs.size() != static_cast<size_t>(kTopK)) return false;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].item < 0 || recs[i].item >= num_items ||
        !std::isfinite(recs[i].score)) {
      return false;
    }
    if (i > 0 && !(recs[i - 1].score > recs[i].score ||
                   (recs[i - 1].score == recs[i].score &&
                    recs[i - 1].item < recs[i].item))) {
      return false;
    }
  }
  return true;
}

// Recall@k of the default-beam index against the exact scan on evenly
// spaced users.
double RecallAtK(PredictionEngine& engine) {
  const int32_t users = engine.store().num_users();
  const int32_t stride = std::max(1, users / kRecallUsers);
  int64_t hits = 0;
  int64_t wanted = 0;
  for (int32_t u = 0; u < users && u / stride < kRecallUsers; u += stride) {
    Result<std::vector<Recommendation>> exact =
        engine.RecommendTopK(u, kTopK, /*beam=*/-1);
    Result<std::vector<Recommendation>> beamed =
        engine.RecommendTopK(u, kTopK, kDefaultTopKBeam);
    if (!exact.ok() || !beamed.ok()) return 0.0;
    std::set<int32_t> found;
    for (const Recommendation& r : beamed.value()) found.insert(r.item);
    for (const Recommendation& r : exact.value()) {
      hits += found.count(r.item);
      ++wanted;
    }
  }
  return wanted > 0 ? static_cast<double>(hits) / static_cast<double>(wanted)
                    : 0.0;
}

ServerConfig BenchServerConfig() {
  ServerConfig config;
  config.num_threads = BenchThreads();  // one handler per connection
  return config;
}

// Open + start, `kSetupReps` times; the last pair is kept. Returns the
// per-rep seconds (empty on failure).
std::vector<double> SetUp(const std::string& path, ServeMetrics* metrics,
                          std::unique_ptr<StoreManager>* stores,
                          std::unique_ptr<ScoringServer>* server) {
  std::vector<double> seconds;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    server->reset();
    stores->reset();
    obs::Stopwatch timer;
    Result<std::unique_ptr<StoreManager>> opened =
        StoreManager::Open(path, metrics);
    if (!opened.ok()) {
      std::fprintf(stderr, "store %s: %s\n", path.c_str(),
                   opened.status().ToString().c_str());
      return {};
    }
    Result<std::unique_ptr<ScoringServer>> started = ScoringServer::Start(
        opened.value().get(), metrics, BenchServerConfig());
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   started.status().ToString().c_str());
      return {};
    }
    seconds.push_back(timer.Seconds());
    *stores = std::move(opened).value();
    *server = std::move(started).value();
  }
  return seconds;
}

Result<std::vector<ScoringClient>> ConnectAll(int32_t count, int32_t port) {
  std::vector<ScoringClient> clients;
  for (int32_t c = 0; c < count; ++c) {
    HIGNN_ASSIGN_OR_RETURN(ScoringClient client,
                           ScoringClient::Connect("127.0.0.1", port));
    clients.push_back(std::move(client));
  }
  return clients;
}

std::vector<Rng> CallerRngs(uint64_t seed, int32_t count) {
  std::vector<Rng> rngs;
  for (int32_t c = 0; c < count; ++c) {
    rngs.emplace_back(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(c));
  }
  return rngs;
}

}  // namespace

bool IsServeWorkload(const std::string& workload) {
  return workload == "serve-score" || workload == "serve-topk";
}

Status PrepareServeFixture(const RunOptions& options) {
  const ServeSize size = SizeOf(options.toy);
  PlantedWorldConfig config;
  config.num_users = size.users;
  config.num_items = size.items;
  // d = 16 and the larger head budget keep the planted landscape
  // routable at 100k items (see bench/serving_load.cc).
  config.level_dim = 16;
  config.cvr_train_samples = options.toy ? 5000 : 60000;
  config.cvr_epochs = 4;
  // The store is the deployment, not the traffic: it is the same for
  // every seed, which picks only the request stream.
  config.seed = 7;
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<PlantedWorld> world,
                         BuildPlantedWorld(config));
  return ExportEmbeddingStore(world->model, world->dataset, world->spec,
                              world->cvr, FixturePath(options));
}

void RunServeWorkload(const RunOptions& options, Report& report) {
  const ServeSize size = SizeOf(options.toy);
  const bool topk = options.workload == "serve-topk";
  ServeMetrics metrics(&obs::MetricsRegistry::Global());
  std::unique_ptr<StoreManager> stores;
  std::unique_ptr<ScoringServer> server;
  const std::vector<double> setup_s =
      SetUp(FixturePath(options), &metrics, &stores, &server);
  if (setup_s.empty()) {
    report.Check("serve.setup", false);
    return;
  }
  const Catalog catalog{stores->Current()->store().num_users(),
                        stores->Current()->store().num_items()};

  const int32_t callers = BenchThreads();
  Result<std::vector<ScoringClient>> connected =
      ConnectAll(callers, server->port());
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().ToString().c_str());
    report.Check("serve.connected", false);
    return;
  }
  std::vector<ScoringClient>& clients = connected.value();
  std::vector<Rng> rngs = CallerRngs(options.seed, callers);

  // Per-caller state, touched only by its own caller thread.
  struct CallerState {
    int64_t requests = 0;
    int64_t invalid = 0;
    int64_t reloads = 0;
    int64_t last_generation = 0;
    bool generations_increase = true;
    std::vector<std::pair<std::vector<ScoreRequest>, std::vector<float>>>
        parity;  ///< every kParityEvery-th score request and its reply
  };
  std::vector<CallerState> state(static_cast<size_t>(callers));
  for (CallerState& s : state) s.last_generation = stores->generation();

  const LoopResult load = ClosedLoop(
      callers, size.warmup_s, options.seconds, [&](int32_t c) -> Outcome {
        CallerState& mine = state[static_cast<size_t>(c)];
        ScoringClient& client = clients[static_cast<size_t>(c)];
        Rng& rng = rngs[static_cast<size_t>(c)];
        if (!topk) {
          std::vector<ScoreRequest> pairs =
              RandomPairs(rng, catalog, kPairsPerRequest);
          Result<std::vector<float>> scores = client.Score(pairs);
          if (!scores.ok()) return Outcome::kFailed;
          if (!ScoresValid(scores.value(), pairs.size())) ++mine.invalid;
          if (mine.requests++ % kParityEvery == 0) {
            mine.parity.push_back({std::move(pairs), scores.value()});
          }
          return Outcome::kTimed;
        }
        // Connection 0 writes beside the reads: a reload of the same
        // store after every kReloadEvery-th of its own requests.
        if (c == 0 && mine.requests > 0 &&
            mine.requests % kReloadEvery == 0 &&
            mine.reloads < mine.requests / kReloadEvery) {
          ++mine.reloads;
          Result<int64_t> generation = client.Reload();
          if (!generation.ok()) return Outcome::kFailed;
          mine.generations_increase = mine.generations_increase &&
                                      generation.value() > mine.last_generation;
          mine.last_generation = generation.value();
          return Outcome::kUntimed;
        }
        ++mine.requests;
        const int32_t user = static_cast<int32_t>(
            rng.UniformInt(static_cast<uint64_t>(catalog.users)));
        Result<std::vector<Recommendation>> recs = client.TopK(user, kTopK);
        if (!recs.ok()) return Outcome::kFailed;
        if (!TopKValid(recs.value(), catalog.items)) ++mine.invalid;
        return Outcome::kTimed;
      });
  report.attempted += load.attempted;
  report.failed += load.failed;

  int64_t invalid = 0;
  bool generations_increase = true;
  int64_t reloads = 0;
  bool parity = true;
  int64_t parity_checked = 0;
  for (const CallerState& s : state) {
    invalid += s.invalid;
    reloads += s.reloads;
    generations_increase = generations_increase && s.generations_increase;
    for (const auto& [pairs, scores] : s.parity) {
      // In-process re-score must match the wire reply bit for bit.
      Result<std::vector<float>> again =
          stores->Current()->engine->ScoreBatch(pairs);
      parity = parity && again.ok() && again.value().size() == scores.size() &&
               std::memcmp(again.value().data(), scores.data(),
                           scores.size() * sizeof(float)) == 0;
      ++parity_checked;
    }
  }
  report.Check(topk ? "serve.topk_replies_valid" : "serve.score_replies_valid",
               invalid == 0);
  if (topk) {
    report.Check("serve.reload_generations_increase", generations_increase);
    const double recall = RecallAtK(*stores->Current()->engine);
    report.Check("serve.recall_at_10_ge_0.95", recall >= 0.95);
    report.Detail("recall_at_10", Report::Number(recall));
    report.Detail("reloads",
                  StrFormat("%lld", static_cast<long long>(reloads)));
  } else {
    report.Check("serve.score_parity", parity && parity_checked > 0);
  }
  server->Stop();

  const Summary latency = Summarize(load.latency_us);
  report.AddSummary("setup_s", Summarize(setup_s), "s");
  report.AddSummary("latency_p50_ms", latency, "ms", 1e-3);
  report.AddSummary("latency_p99_ms", latency, "ms", 1e-3, &Summary::p99);
  report.Add("ops_per_s",
             static_cast<double>(load.window_ops) / options.seconds, "1/s",
             load.window_ops);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Detail("serve", StrFormat(
      "{\"users\": %d, \"items\": %d, \"clients\": %d, \"batches\": %lld, "
      "\"p999_ms\": %s, \"n\": %lld}",
      catalog.users, catalog.items, callers,
      static_cast<long long>(metrics.batches_total()),
      Report::Number(latency.p999 * 1e-3).c_str(),
      static_cast<long long>(latency.n)));
}

void RunServeLayers(const RunOptions& options, bool own_workload,
                    SpanLog& spans, Report& report) {
  constexpr int32_t kOp = 2;
  const ServeSize size = SizeOf(options.toy);
  const std::string path = FixturePath(options);
  ScopedSpan root(spans, "serve.probes", kOp, 0, -1);
  const int32_t parent = root.id();
  const int32_t callers = BenchThreads();

  ServeMetrics store_metrics;
  std::unique_ptr<StoreManager> stores;
  {
    ScopedSpan span(spans, "serve.store.open", kOp, 0, parent);
    std::vector<double> open_s;
    for (int32_t rep = 0; rep < 3; ++rep) {
      stores.reset();
      obs::Stopwatch timer;
      Result<std::unique_ptr<StoreManager>> opened =
          StoreManager::Open(path, &store_metrics);
      if (!opened.ok()) {
        std::fprintf(stderr, "store %s: %s\n", path.c_str(),
                     opened.status().ToString().c_str());
        report.Check("serve.store_opened", false);
        return;
      }
      open_s.push_back(timer.Seconds());
      stores = std::move(opened).value();
    }
    report.AddSummary("serve.store.open_s", Summarize(open_s), "s");
    std::error_code error;
    report.Add("serve.store.bytes",
               static_cast<double>(std::filesystem::file_size(path, error)),
               "B");
  }
  // Held until the end: the reload probe retires it from the manager.
  const std::shared_ptr<const StoreGeneration> generation = stores->Current();
  PredictionEngine& engine = *generation->engine;
  const EmbeddingStore& store = engine.store();
  const Catalog catalog{store.num_users(), store.num_items()};
  std::vector<Rng> rngs = CallerRngs(options.seed, callers);
  Rng& rng = rngs.front();

  // Wire and server: the same 8-pair Score over TCP and straight into a
  // MicroBatcher, at the same 4-way concurrency.
  ServeMetrics server_metrics;
  Result<std::unique_ptr<ScoringServer>> started =
      ScoringServer::Start(stores.get(), &server_metrics, BenchServerConfig());
  Result<std::vector<ScoringClient>> connected =
      started.ok() ? ConnectAll(callers, started.value()->port())
                   : Result<std::vector<ScoringClient>>(started.status());
  if (!connected.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 connected.status().ToString().c_str());
    report.Check("serve.connected", false);
    return;
  }
  std::vector<ScoringClient>& clients = connected.value();
  auto count = [&](const LoopResult& loop) {
    report.attempted += loop.attempted;
    report.failed += loop.failed;
  };
  {
    ScopedSpan span(spans, "serve.wire.health", kOp, 0, parent);
    std::vector<double> rtt_us;
    for (int32_t i = 0; i < size.probe_calls * 5; ++i) {
      ++report.attempted;
      obs::Stopwatch timer;
      if (!clients.front().Health().ok()) ++report.failed;
      rtt_us.push_back(timer.Micros());
    }
    report.AddSummary("serve.wire.health_rtt_us", Summarize(rtt_us), "us");
  }
  Summary client_score;
  {
    ScopedSpan span(spans, "serve.client.score", kOp, 0, parent);
    const LoopResult loop =
        ClosedLoop(callers, 0.0, size.probe_s, [&](int32_t c) {
          const std::vector<ScoreRequest> pairs = RandomPairs(
              rngs[static_cast<size_t>(c)], catalog, kPairsPerRequest);
          return clients[static_cast<size_t>(c)].Score(pairs).ok()
                     ? Outcome::kTimed
                     : Outcome::kFailed;
        });
    count(loop);
    client_score = Summarize(loop.latency_us);
  }
  started.value()->Stop();

  ServeMetrics batcher_metrics;
  MicroBatcher batcher(stores.get(), &batcher_metrics, BatcherConfig());
  int64_t rows_sent = 0;
  auto batcher_loop = [&](bool traced) {
    std::vector<int64_t> rows(static_cast<size_t>(callers), 0);
    LoopResult loop = ClosedLoop(callers, 0.0, size.probe_s, [&](int32_t c) {
      const std::vector<ScoreRequest> pairs = RandomPairs(
          rngs[static_cast<size_t>(c)], catalog, kPairsPerRequest);
      const int32_t id =
          traced ? spans.Begin("serve.batcher.request", kOp, 0, parent) : -1;
      const bool ok = batcher.Score(pairs).ok();
      if (traced) spans.End(id);
      rows[static_cast<size_t>(c)] += kPairsPerRequest;
      return ok ? Outcome::kTimed : Outcome::kFailed;
    });
    for (int64_t r : rows) rows_sent += r;
    count(loop);
    return Summarize(loop.latency_us);
  };
  Summary batcher_score;
  {
    ScopedSpan span(spans, "serve.batcher.score", kOp, 0, parent);
    batcher_score = batcher_loop(false);
  }
  const int64_t batches = std::max<int64_t>(1, batcher_metrics.batches_total());
  const double rows_per_batch =
      static_cast<double>(rows_sent) / static_cast<double>(batches);
  if (own_workload) {
    // Tracing overhead: the same batcher load with one bench span per
    // request against the untraced window above.
    const Summary traced = batcher_loop(true);
    report.Add("obs.trace_overhead_frac",
               traced.median / batcher_score.median - 1.0, "fraction",
               traced.n);
  }
  batcher.Stop();
  report.Add("serve.server.self_us",
             client_score.median - batcher_score.median, "us",
             client_score.n);
  report.AddSummary("serve.batcher.score_us.p50", batcher_score, "us");
  report.AddSummary("serve.batcher.score_us.p99", batcher_score, "us", 1.0,
                    &Summary::p99);
  report.Add("serve.batcher.rows_per_batch", rows_per_batch, "rows",
             batcher_metrics.batches_total());
  report.Add("serve.batcher.fill_ratio",
             rows_per_batch / BatcherConfig().max_batch, "fraction",
             batcher_metrics.batches_total());

  // Engine: one caller, no batcher.
  {
    ScopedSpan span(spans, "serve.engine.score_batch", kOp, 0, parent);
    std::vector<double> us;
    bool ok = true;
    for (int32_t i = 0; i < size.probe_calls; ++i) {
      const std::vector<ScoreRequest> pairs = RandomPairs(rng, catalog, 32);
      obs::Stopwatch timer;
      ok = engine.ScoreBatch(pairs).ok() && ok;
      us.push_back(timer.Micros());
    }
    report.Check("serve.engine.score_batch_ok", ok);
    const Summary b32 = Summarize(us);
    report.AddSummary("serve.engine.score_batch_us.b32", b32, "us");
    report.Add("serve.batcher.wait_us", batcher_score.median - b32.median,
               "us", b32.n);
  }
  {
    ScopedSpan span(spans, "serve.engine.fill_row", kOp, 0, parent);
    std::vector<float> row(static_cast<size_t>(store.feature_dim()));
    const std::vector<ScoreRequest> pairs = RandomPairs(rng, catalog, 1024);
    size_t next = 0;
    const Summary fill = TimePerCallUs(9, [&] {
      const ScoreRequest& p = pairs[next++ % pairs.size()];
      Consume(store.FillFeatureRow(p.user, p.item, row.data()).ok());
    });
    report.AddSummary("serve.engine.fill_row_ns", fill, "ns", 1e3);
  }
  CvrModel cvr = store.model();
  {
    ScopedSpan span(spans, "predict.cvr.forward", kOp, 0, parent);
    for (const int32_t n : {32, 800}) {
      Matrix rows(static_cast<size_t>(n),
                  static_cast<size_t>(store.feature_dim()));
      const std::vector<ScoreRequest> pairs = RandomPairs(rng, catalog, n);
      for (int32_t r = 0; r < n; ++r) {
        HIGNN_CHECK(store.FillFeatureRow(pairs[static_cast<size_t>(r)].user,
                                         pairs[static_cast<size_t>(r)].item,
                                         rows.row(static_cast<size_t>(r)))
                        .ok());
      }
      const Summary forward = TimePerCallUs(
          15, [&] { Consume(cvr.PredictRows(rows).value().front()); });
      report.AddSummary(StrFormat("predict.cvr.forward_us.r%d", n), forward,
                        "us");
    }
  }

  // Top-k through the index at the server's default beam.
  auto topk_op = [&](int32_t c) {
    const int32_t user = static_cast<int32_t>(rngs[static_cast<size_t>(c)]
        .UniformInt(static_cast<uint64_t>(catalog.users)));
    return engine.RecommendTopK(user, kTopK, kDefaultTopKBeam).ok()
               ? Outcome::kTimed
               : Outcome::kFailed;
  };
  {
    ScopedSpan span(spans, "serve.engine.topk", kOp, 0, parent);
    const LoopResult one = ClosedLoop(1, 0.0, size.probe_s, topk_op);
    const LoopResult many = ClosedLoop(callers, 0.0, size.probe_s, topk_op);
    count(one);
    count(many);
    const Summary single = Summarize(one.latency_us);
    report.AddSummary("serve.engine.topk_us.p50", single, "us");
    report.Add("serve.engine.topk_contention",
               Summarize(many.latency_us).median / single.median, "ratio",
               static_cast<int64_t>(many.latency_us.size()));
  }
  {
    ScopedSpan span(spans, "serve.index.select_leaves", kOp, 0, parent);
    const ClusterTreeIndex::RowScorer scorer = [&](const Matrix& rows) {
      return cvr.PredictRows(rows);
    };
    std::vector<double> us;
    double rows_scored = 0.0;
    bool ok = true;
    for (int32_t i = 0; i < size.probe_calls; ++i) {
      const int32_t user = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(catalog.users)));
      ClusterTreeIndex::SearchStats stats;
      obs::Stopwatch timer;
      Result<std::vector<int32_t>> leaves = store.index().SelectLeaves(
          store.UserBlock(user), store.UserTail(user), kDefaultTopKBeam,
          scorer, &stats);
      us.push_back(timer.Micros());
      ok = ok && leaves.ok();
      rows_scored += static_cast<double>(stats.nodes_scored +
                                         stats.leaves_selected);
    }
    report.Check("serve.index.select_leaves_ok", ok);
    rows_scored /= static_cast<double>(size.probe_calls);
    report.AddSummary("serve.index.select_leaves_us", Summarize(us), "us");
    report.Add("serve.index.rows_scored", rows_scored, "rows",
               size.probe_calls);
    report.Add("serve.index.useful_ratio", kTopK / rows_scored, "fraction",
               size.probe_calls);
  }
  {
    ScopedSpan span(spans, "serve.index.recall", kOp, 0, parent);
    const double recall = RecallAtK(engine);
    report.Add("serve.index.recall_at_10", recall, "fraction", kRecallUsers);
    report.Check("serve.recall_at_10_ge_0.95", recall >= 0.95);
  }
  {
    ScopedSpan span(spans, "serve.store.reload", kOp, 0, parent);
    std::vector<double> reload_ms;
    for (int32_t rep = 0; rep < 3; ++rep) {
      ++report.attempted;
      obs::Stopwatch timer;
      if (!stores->Reload().ok()) ++report.failed;
      reload_ms.push_back(timer.Millis());
    }
    report.AddSummary("serve.store.reload_ms", Summarize(reload_ms), "ms");
  }
}

}  // namespace hignn::bench
