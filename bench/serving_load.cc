// Serving load generator: stands up the full online stack in one process
// (store -> engine -> micro-batcher -> TCP server), drives it with
// concurrent socket clients, and reports client-visible throughput and
// latency percentiles. A second phase measures the cluster-tree
// retrieval index against the exact linear scan on a planted-hierarchy
// catalog (recall@10, rows scored, and latency per beam width). Writes
// BENCH_serving.json in the working directory (consumed by CI as the
// serving performance artifact).
//
// Everything before the measurement is the same deterministic pipeline
// `hignn export-store` runs; the measured sections are real frames over
// real loopback sockets (phase 1) and the engine's own topk entry
// points (phase 2).
//
// Knobs: --users N / --items N size the phase-2 planted catalog
// (defaults 512 x 100000 — the committed artifact's index-vs-scan
// curves are measured at paper-like catalog scale).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/hignn.h"
#include "data/planted.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/index/cluster_tree.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hignn {
namespace {

constexpr int32_t kClients = 4;
constexpr int32_t kPairsPerRequest = 8;
constexpr int32_t kTopK = 10;
constexpr int32_t kBeams[] = {1, 2, 4, 8, 16, 32, 64};

/// One measured point of the index-vs-scan curve.
struct BeamPoint {
  int32_t beam = 0;
  double recall_at_k = 0.0;
  double rows_scored_mean = 0.0;  ///< centroids + surviving leaves per query
  double latency_us_mean = 0.0;
};

int Run(int32_t bench_users, int32_t bench_items) {
  bench::PrintHeader(
      "Online serving load: micro-batched TCP scoring + retrieval index",
      "Paper Sec. VI (online deployment); store/engine/server/index stack");

  // ---------------------------------------------------------------------
  // Phase 1: micro-batched kScore round trips over loopback TCP.
  // ---------------------------------------------------------------------
  SyntheticConfig data_config = SyntheticConfig::Tiny();
  data_config.num_users = bench::Scaled(400);
  data_config.num_items = bench::Scaled(160);
  data_config.num_days = 6;
  data_config.mean_clicks_per_user_day = 3.0;
  auto dataset = SyntheticDataset::Generate(data_config).ValueOrDie();

  HignnConfig hignn_config;
  hignn_config.levels = 2;
  hignn_config.sage.dims = {8, 8};
  hignn_config.sage.fanouts = {5, 3};
  hignn_config.sage.train_steps = bench::Scaled(40);
  hignn_config.min_clusters = 2;
  auto model = Hignn::Fit(dataset.BuildTrainGraph(), dataset.user_features(),
                          dataset.item_features(), hignn_config)
                   .ValueOrDie();

  const FeatureSpec spec = FeatureSpec::HiGnn(model.num_levels());
  auto builder =
      CvrFeatureBuilder::Create(&dataset, &model, spec).ValueOrDie();
  const SampleSet samples = BuildSamples(dataset, true, 2024);
  CvrModelConfig cvr_config;
  cvr_config.hidden = {32, 16};
  cvr_config.epochs = 2;
  cvr_config.batch_size = 256;
  auto cvr = CvrModel::Create(builder.dim(), cvr_config).ValueOrDie();
  HIGNN_CHECK(cvr.Train(builder, samples.train).ok());

  const std::string store_path = "BENCH_serving.hgnnstore";
  HIGNN_CHECK(
      ExportEmbeddingStore(model, dataset, spec, cvr, store_path).ok());
  // Server-side and client-side metrics share the process-wide registry:
  // the server's serve.* counters and the client-visible latency
  // histogram below land in one dump, percentile math included.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  ServeMetrics metrics(&registry);
  auto stores = std::move(StoreManager::Open(store_path, &metrics).ValueOrDie());
  // One handler per client: a handler serves one connection until it
  // closes, so fewer handlers than clients would make the QPS below
  // measure the handler count instead of the serving path.
  ServerConfig server_config;
  server_config.num_threads = kClients;
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, server_config)
                    .ValueOrDie());
  std::printf("store %s exported; server on port %d\n", store_path.c_str(),
              server->port());

  // Deterministic request stream: each client cycles through the
  // test-day pairs at its own stride so concurrent batches mix users.
  const int32_t requests_per_client = bench::Scaled(250);
  std::vector<std::vector<ScoreRequest>> request_pool;
  for (int64_t base = 0;
       base < static_cast<int64_t>(kClients) * requests_per_client; ++base) {
    std::vector<ScoreRequest> request;
    for (int32_t j = 0; j < kPairsPerRequest; ++j) {
      const LabeledSample& sample =
          samples.test[static_cast<size_t>(base * kPairsPerRequest + j) %
                       samples.test.size()];
      request.push_back({sample.user, sample.item});
    }
    request_pool.push_back(std::move(request));
  }

  std::vector<std::vector<double>> latencies_us(kClients);
  std::vector<Status> failures(kClients);
  WallTimer wall;
  // hignn-lint: allow(naked-thread) load clients block on sockets
  std::vector<std::thread> clients;
  for (int32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ScoringClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures[static_cast<size_t>(c)] = client.status();
        return;
      }
      latencies_us[static_cast<size_t>(c)].reserve(
          static_cast<size_t>(requests_per_client));
      for (int32_t r = 0; r < requests_per_client; ++r) {
        const auto& request = request_pool[static_cast<size_t>(
            c * requests_per_client + r)];
        WallTimer request_timer;
        auto scores = client.value().Score(request);
        if (!scores.ok()) {
          failures[static_cast<size_t>(c)] = scores.status();
          return;
        }
        latencies_us[static_cast<size_t>(c)].push_back(
            request_timer.Seconds() * 1e6);
      }
    });
  }
  // hignn-lint: allow(naked-thread) joining the load clients
  for (std::thread& t : clients) t.join();
  const double wall_seconds = wall.Seconds();
  server->Stop();

  for (int32_t c = 0; c < kClients; ++c) {
    if (!failures[static_cast<size_t>(c)].ok()) {
      std::fprintf(stderr, "client %d failed: %s\n", c,
                   failures[static_cast<size_t>(c)].ToString().c_str());
      return 1;
    }
  }

  // Client-visible latencies go through the shared obs::Histogram — the
  // same buckets and percentile math the server and run reports use, so
  // every artifact in the tree agrees on what "p99" means.
  obs::Histogram& client_latency = registry.GetHistogram(
      "bench.client_latency_us", obs::DefaultLatencyBoundsUs());
  double sum_us = 0.0;
  for (const std::vector<double>& per_client : latencies_us) {
    for (double v : per_client) {
      client_latency.Record(v);
      sum_us += v;
    }
  }
  const int64_t total_requests = client_latency.count();
  const double qps =
      wall_seconds > 0.0 ? total_requests / wall_seconds : 0.0;
  const double p50 = client_latency.Percentile(0.50);
  const double p95 = client_latency.Percentile(0.95);
  const double p99 = client_latency.Percentile(0.99);
  const double mean_us =
      total_requests > 0 ? sum_us / static_cast<double>(total_requests) : 0.0;

  std::printf("%-26s %12s %12s %12s %12s\n", "metric", "qps", "p50(us)",
              "p95(us)", "p99(us)");
  std::printf("%-26s %12.0f %12.0f %12.0f %12.0f\n", "score round trip",
              qps, p50, p95, p99);
  std::printf("served %lld requests (%d clients x %d, %d pairs each) "
              "in %.2fs; %lld engine batches\n",
              static_cast<long long>(total_requests), kClients,
              requests_per_client, kPairsPerRequest, wall_seconds,
              static_cast<long long>(metrics.batches_total()));

  // Server-side phase attribution (DESIGN.md §17): the handler stamped
  // every request's lifecycle during the load above, and RecordPhases
  // folded the deltas into the shared registry's serve.phase.*
  // histograms — read them back so the artifact splits the end-to-end
  // percentiles into where the time actually went.
  struct PhaseRow {
    const char* name;
    obs::Histogram* histogram;
  };
  const PhaseRow phase_rows[] = {
      {"parse", &registry.GetHistogram("serve.phase.parse_us",
                                       obs::DefaultLatencyBoundsUs())},
      {"queue_wait", &registry.GetHistogram("serve.phase.queue_wait_us",
                                            obs::DefaultLatencyBoundsUs())},
      {"assemble", &registry.GetHistogram("serve.phase.assemble_us",
                                          obs::DefaultLatencyBoundsUs())},
      {"forward", &registry.GetHistogram("serve.phase.forward_us",
                                         obs::DefaultLatencyBoundsUs())},
      {"index", &registry.GetHistogram("serve.phase.index_us",
                                       obs::DefaultLatencyBoundsUs())},
      {"reply", &registry.GetHistogram("serve.phase.reply_us",
                                       obs::DefaultLatencyBoundsUs())},
  };
  std::printf("\n%-26s %12s %12s %12s %12s\n", "phase", "count", "p50(us)",
              "p95(us)", "p99(us)");
  std::string phases_json;
  for (size_t i = 0; i < sizeof(phase_rows) / sizeof(phase_rows[0]); ++i) {
    const PhaseRow& row = phase_rows[i];
    std::printf("%-26s %12lld %12.0f %12.0f %12.0f\n", row.name,
                static_cast<long long>(row.histogram->count()),
                row.histogram->Percentile(0.50),
                row.histogram->Percentile(0.95),
                row.histogram->Percentile(0.99));
    phases_json += StrFormat(
        "    \"%s\": {\"count\": %lld, \"p50\": %.1f, \"p95\": %.1f, "
        "\"p99\": %.1f}%s\n",
        row.name, static_cast<long long>(row.histogram->count()),
        row.histogram->Percentile(0.50), row.histogram->Percentile(0.95),
        row.histogram->Percentile(0.99),
        i + 1 < sizeof(phase_rows) / sizeof(phase_rows[0]) ? "," : "");
  }

  // ---------------------------------------------------------------------
  // Phase 2: cluster-tree index vs exact linear scan on a planted
  // catalog of --items items. Recall@10 is measured against the exact
  // scan of the SAME model, so the curve isolates what the beam loses —
  // not what the synthetic labels lose.
  // ---------------------------------------------------------------------
  std::printf("\nbuilding planted catalog: %d users x %d items...\n",
              bench_users, bench_items);
  PlantedWorldConfig planted_config;
  planted_config.num_users = bench_users;
  planted_config.num_items = bench_items;
  // At 100k items a level has ~20k clusters, so the planted code
  // separation must beat the extreme-value tail of that many random
  // dots: wider codes (d=16) and a larger head-training budget keep the
  // score landscape routable at catalog scale.
  planted_config.level_dim = 16;
  planted_config.cvr_train_samples = 60000;
  planted_config.cvr_epochs = 4;
  planted_config.seed = 7;
  auto world = std::move(BuildPlantedWorld(planted_config).ValueOrDie());
  const std::string index_store_path = "BENCH_serving_index.hgnnstore";
  HIGNN_CHECK(ExportEmbeddingStore(world->model, world->dataset, world->spec,
                                   world->cvr, index_store_path)
                  .ok());
  auto engine =
      std::move(PredictionEngine::Open(index_store_path).ValueOrDie());
  const int32_t num_levels = engine->store().index().num_levels();

  // Evenly spaced query users; every configuration answers the same set.
  std::vector<int32_t> query_users;
  const int32_t query_stride =
      bench_users >= 48 ? bench_users / 48 : 1;
  for (int32_t u = 0; u < bench_users; u += query_stride) {
    query_users.push_back(u);
  }

  std::vector<std::vector<Recommendation>> exact_topk;
  exact_topk.reserve(query_users.size());
  double exact_latency_sum_us = 0.0;
  for (int32_t user : query_users) {
    WallTimer timer;
    exact_topk.push_back(engine->RecommendTopK(user, kTopK).ValueOrDie());
    exact_latency_sum_us += timer.Seconds() * 1e6;
  }
  const double exact_latency_us =
      exact_latency_sum_us / static_cast<double>(query_users.size());

  std::printf("%-10s %12s %14s %14s %10s\n", "beam", "recall@10",
              "rows/query", "latency(us)", "vs scan");
  std::printf("%-10s %12.4f %14d %14.0f %9.1fx\n", "exact", 1.0,
              bench_items, exact_latency_us, 1.0);

  std::vector<BeamPoint> curve;
  for (const int32_t beam : kBeams) {
    BeamPoint point;
    point.beam = beam;
    int64_t hits = 0;
    int64_t rows = 0;
    double latency_sum_us = 0.0;
    for (size_t q = 0; q < query_users.size(); ++q) {
      ClusterTreeIndex::SearchStats stats;
      WallTimer timer;
      const std::vector<Recommendation> beamed =
          engine->RecommendTopK(query_users[q], kTopK, beam, &stats)
              .ValueOrDie();
      latency_sum_us += timer.Seconds() * 1e6;
      rows += stats.nodes_scored + stats.leaves_selected;
      std::set<int32_t> found;
      for (const Recommendation& rec : beamed) found.insert(rec.item);
      for (const Recommendation& rec : exact_topk[q]) {
        hits += found.count(rec.item) ? 1 : 0;
      }
    }
    const double queries = static_cast<double>(query_users.size());
    point.recall_at_k =
        static_cast<double>(hits) / (queries * static_cast<double>(kTopK));
    point.rows_scored_mean = static_cast<double>(rows) / queries;
    point.latency_us_mean = latency_sum_us / queries;
    std::printf("%-10d %12.4f %14.0f %14.0f %9.1fx\n", beam,
                point.recall_at_k, point.rows_scored_mean,
                point.latency_us_mean,
                point.latency_us_mean > 0.0
                    ? exact_latency_us / point.latency_us_mean
                    : 0.0);
    curve.push_back(point);
  }

  std::string json = "{\n";
  json += bench::JsonHostFields();
  json += StrFormat("  \"scale\": %.2f,\n", bench::Scale());
  json += StrFormat(
      "  \"workload\": {\"users\": %d, \"items\": %d, \"clients\": %d, "
      "\"requests_per_client\": %d, \"pairs_per_request\": %d},\n",
      data_config.num_users, data_config.num_items, kClients,
      requests_per_client, kPairsPerRequest);
  json += StrFormat("  \"wall_seconds\": %.4f,\n", wall_seconds);
  json += StrFormat("  \"qps\": %.1f,\n", qps);
  json += StrFormat(
      "  \"latency_us\": {\"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, "
      "\"p99\": %.1f},\n",
      mean_us, p50, p95, p99);
  json += "  \"phase_latency_us\": {\n" + phases_json + "  },\n";
  // The load sends only score requests, so the score counters are the
  // server's totals.
  obs::MetricsRegistry& served = metrics.registry();
  json += StrFormat(
      "  \"server\": {\"requests_total\": %lld, \"batches_total\": %lld, "
      "\"shed_total\": %lld, \"errors_total\": %lld},\n",
      static_cast<long long>(served.GetCounter("serve.requests.score").value()),
      static_cast<long long>(metrics.batches_total()),
      static_cast<long long>(served.GetCounter("serve.shed_total").value()),
      static_cast<long long>(served.GetCounter("serve.errors.score").value()));
  json += StrFormat(
      "  \"topk_index\": {\n"
      "    \"users\": %d, \"items\": %d, \"levels\": %d, \"k\": %d, "
      "\"queries\": %d, \"default_beam\": %d,\n"
      "    \"exact\": {\"rows_scored\": %d, \"latency_us_mean\": %.1f},\n"
      "    \"curves\": [\n",
      bench_users, bench_items, num_levels, kTopK,
      static_cast<int32_t>(query_users.size()), kDefaultTopKBeam,
      bench_items, exact_latency_us);
  for (size_t i = 0; i < curve.size(); ++i) {
    const BeamPoint& point = curve[i];
    json += StrFormat(
        "      {\"beam\": %d, \"recall_at_10\": %.4f, "
        "\"rows_scored_mean\": %.1f, \"latency_us_mean\": %.1f, "
        "\"scan_rows_over_index_rows\": %.1f}%s\n",
        point.beam, point.recall_at_k, point.rows_scored_mean,
        point.latency_us_mean,
        point.rows_scored_mean > 0.0
            ? static_cast<double>(bench_items) / point.rows_scored_mean
            : 0.0,
        i + 1 < curve.size() ? "," : "");
  }
  json += "    ]\n  }\n";
  json += "}\n";
  if (Status status = AtomicWriteTextFile("BENCH_serving.json", json);
      !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_serving.json\n");
  return 0;
}

}  // namespace
}  // namespace hignn

int main(int argc, char** argv) {
  int32_t users = 0;  // 0 = derive from --items below
  int32_t items = 100000;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--users") == 0 && has_value) {
      users = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--items") == 0 && has_value) {
      items = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: serving_load [--users N] [--items N]\n"
                   "  sizes the retrieval-index phase's planted catalog "
                   "(defaults: 100000 items, items/5 users)\n");
      return 2;
    }
  }
  if (items <= 0 || users < 0) {
    std::fprintf(stderr, "--users/--items must be positive\n");
    return 2;
  }
  // Default the user count to items/alpha so the planted user hierarchy
  // decays in lockstep with the item hierarchy: each level-l user
  // cluster then points at exactly one level-l item cluster, keeping
  // the user's advertised ancestor chain self-consistent. Far fewer
  // users than that makes upper-level user rows span many item clusters
  // and the planted routing signal degrades (quantization, not the
  // index, dominates the recall curve).
  if (users == 0) users = items >= 320 ? items / 5 : 64;
  return hignn::Run(users, items);
}
