// Serving chaos harness: hot-reload and resilience tests that drive the
// online stack through injected faults (util/fault_injection) and
// concurrent reload/traffic races, asserting the two serving contracts:
//
//   1. Zero downtime — a reload (successful or failed) never fails a
//      request that a retrying client is willing to re-send, and a failed
//      reload is a strict no-op for traffic (the old generation serves).
//   2. Bitwise stability — scores for the same (user, item) pairs are
//      float-identical across any number of generation swaps of the same
//      exported store.
//
// Also compiled into hignn_threading_tests so `ctest -L tsan` races the
// RCU pointer swap, the batcher's generation acquisition, and concurrent
// reloads under ThreadSanitizer.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/request_id.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace hignn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Replaces `path` whole: the bytes go to a file of this process's own and
// are renamed over `path`. The serve. and tsan. binaries both run this
// suite, concurrently under ctest -j, on the same temp paths; rewriting in
// place let one read the other's half-written copy.
void WriteBytes(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0) << path;
}

// A small trained pipeline exported once; every test reloads from copies
// or corruptions of this one store file. Deliberately smaller than
// serve_test's fixture: this suite also runs under TSan.
class ServeChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig data_config = SyntheticConfig::Tiny();
    data_config.num_users = 120;
    data_config.num_items = 60;
    data_config.num_days = 5;
    data_config.mean_clicks_per_user_day = 3.0;
    auto dataset = SyntheticDataset::Generate(data_config).ValueOrDie();

    HignnConfig hignn_config;
    hignn_config.levels = 2;
    hignn_config.sage.dims = {8, 8};
    hignn_config.sage.fanouts = {4, 3};
    hignn_config.sage.train_steps = 20;
    hignn_config.min_clusters = 2;
    auto model = Hignn::Fit(dataset.BuildTrainGraph(),
                            dataset.user_features(), dataset.item_features(),
                            hignn_config)
                     .ValueOrDie();

    const FeatureSpec spec = FeatureSpec::HiGnn(model.num_levels());
    auto builder =
        CvrFeatureBuilder::Create(&dataset, &model, spec).ValueOrDie();
    const SampleSet samples = BuildSamples(dataset, true, 7);
    CvrModelConfig cvr_config;
    cvr_config.hidden = {16, 8};
    cvr_config.epochs = 1;
    cvr_config.batch_size = 128;
    auto cvr = CvrModel::Create(builder.dim(), cvr_config).ValueOrDie();
    ASSERT_TRUE(cvr.Train(builder, samples.train).ok());

    store_path_ = TempPath("chaos_fixture.hgnnstore");
    ASSERT_TRUE(
        ExportEmbeddingStore(model, dataset, spec, cvr, store_path_).ok());

    for (size_t i = 0; i < 24 && i < samples.test.size(); ++i) {
      pairs_.push_back({samples.test[i].user, samples.test[i].item});
    }
    ASSERT_GE(pairs_.size(), 8u);
  }

  void TearDown() override {
    // Never leak an armed fault site into the next test.
    fault::Configure("");
  }

  static std::string store_path_;
  static std::vector<ScoreRequest> pairs_;
};

std::string ServeChaosFixture::store_path_;
std::vector<ScoreRequest> ServeChaosFixture::pairs_;

// ------------------------------------------------------ StoreManager ----

TEST_F(ServeChaosFixture, OpenWithoutMetricsIsInvalidArgument) {
  auto stores = StoreManager::Open(store_path_, nullptr);
  ASSERT_FALSE(stores.ok());
  EXPECT_EQ(stores.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeChaosFixture, ReloadPreservesBitwiseScoreParity) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  EXPECT_EQ(stores->generation(), 1);
  const std::vector<float> before =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();

  // Swap to a byte-identical copy at a different path, then back to the
  // original: three generations, one logical store.
  const std::string copy_path = TempPath("chaos_copy.hgnnstore");
  WriteBytes(copy_path, ReadBytes(store_path_));
  EXPECT_EQ(stores->Reload(copy_path).ValueOrDie(), 2);
  EXPECT_EQ(stores->Current()->path, copy_path);
  EXPECT_EQ(stores->Reload().ValueOrDie(), 3);  // "" = re-open current

  const std::vector<float> after =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "pair " << i;  // bitwise, not near
  }
  obs::MetricsRegistry& registry = metrics.registry();
  EXPECT_EQ(registry.GetCounter("serve.reload_total").value(), 2);
  EXPECT_EQ(registry.GetCounter("serve.reload_failed_total").value(), 0);
  EXPECT_EQ(registry.GetGauge("serve.store_generation").value(), 3.0);
}

TEST_F(ServeChaosFixture, InFlightGenerationSurvivesAReloadUnderneathIt) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  const std::shared_ptr<const StoreGeneration> held = stores->Current();
  ASSERT_TRUE(stores->Reload().ok());
  ASSERT_TRUE(stores->Reload().ok());
  // The held generation is unpublished but must stay fully usable — this
  // is the RCU guarantee in-flight requests rely on.
  EXPECT_EQ(held->number, 1);
  EXPECT_TRUE(held->engine->ScoreBatch(pairs_).ok());
  EXPECT_EQ(stores->Current()->number, 3);
}

TEST_F(ServeChaosFixture, CorruptAndTruncatedReloadsAreNoOps) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  const std::vector<float> before =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();
  const std::string bytes = ReadBytes(store_path_);

  const std::string truncated_path = TempPath("chaos_truncated.hgnnstore");
  WriteBytes(truncated_path, bytes.substr(0, bytes.size() - 64));
  auto truncated = stores->Reload(truncated_path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x20);
  const std::string corrupt_path = TempPath("chaos_corrupt.hgnnstore");
  WriteBytes(corrupt_path, corrupt);
  ASSERT_FALSE(stores->Reload(corrupt_path).ok());

  // Both failures left generation 1 serving, path untouched, and the
  // same bits coming back.
  EXPECT_EQ(stores->generation(), 1);
  EXPECT_EQ(stores->Current()->path, store_path_);
  const std::vector<float> after =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "pair " << i;
  }
  obs::MetricsRegistry& registry = metrics.registry();
  EXPECT_EQ(registry.GetCounter("serve.reload_total").value(), 2);
  EXPECT_EQ(registry.GetCounter("serve.reload_failed_total").value(), 2);
  EXPECT_EQ(registry.GetGauge("serve.store_generation").value(), 1.0);
}

TEST_F(ServeChaosFixture, InjectedOpenFaultFailsReloadThenRecovers) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  fault::Configure("serve.store.open=fail");
  auto injected = stores->Reload();
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(stores->generation(), 1);
  EXPECT_EQ(
      metrics.registry().GetCounter("serve.reload_failed_total").value(), 1);
  fault::Configure("");
  // One-shot fault cleared: the very next reload succeeds.
  EXPECT_EQ(stores->Reload().ValueOrDie(), 2);
}

// ------------------------------------------------------- TCP serving ----

TEST_F(ServeChaosFixture, ReloadVerbSwapsGenerationsVisibleToClients) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  EXPECT_EQ(client.HealthGeneration().ValueOrDie(), 1);
  const std::vector<float> before = client.Score(pairs_).ValueOrDie();

  EXPECT_EQ(client.Reload().ValueOrDie(), 2);
  EXPECT_EQ(client.HealthGeneration().ValueOrDie(), 2);

  // A reload from a corrupt path answers kInternal and leaves the live
  // generation serving.
  const std::string bytes = ReadBytes(store_path_);
  const std::string corrupt_path = TempPath("chaos_wire_corrupt.hgnnstore");
  WriteBytes(corrupt_path, bytes.substr(0, bytes.size() / 2));
  auto failed = client.Reload(corrupt_path);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(client.HealthGeneration().ValueOrDie(), 2);

  const std::vector<float> after = client.Score(pairs_).ValueOrDie();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "pair " << i;
  }
  // The daemon section keeps the generation it started on; the registry
  // counts both reload attempts and publishes the live generation.
  const std::string json = client.Stats().ValueOrDie();
  EXPECT_EQ(json.rfind("{\"daemon\": {\"start_generation\": 1, ", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"serve.reload_failed_total\": 1,\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.reload_total\": 2,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.requests.reload\": 2,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.errors.reload\": 1,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.store_generation\": 2\n"), std::string::npos)
      << json;
  server->Stop();
}

TEST_F(ServeChaosFixture, ClientRetriesThroughInjectedSendFault) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  ClientConfig config;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_ms = 1;
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(), config)
                    .ValueOrDie());

  // The client's first SendFrame is the first hit on the site (the
  // server only sends after receiving a request), so the injected fault
  // lands on the request frame; the retry reconnects and succeeds.
  fault::Configure("serve.frame.send=fail@1");
  const std::vector<float> scores = client.Score(pairs_).ValueOrDie();
  EXPECT_EQ(scores.size(), pairs_.size());
  EXPECT_EQ(client.retries_attempted(), 1);

  // Fail-fast client with the same fault re-armed surfaces Unavailable.
  fault::Configure("serve.frame.send=fail@1");
  auto fail_fast =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());
  auto failed = fail_fast.Score(pairs_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  server->Stop();
}

TEST_F(ServeChaosFixture, ClientRetriesThroughDroppedConnection) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());

  // The accept-side chaos site closes the first connection right after
  // accept — the client sees its request die mid-flight (EOF or reset)
  // and must recover onto a fresh connection.
  fault::Configure("serve.handler.accept=fail@1");
  ClientConfig config;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ms = 1;
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(), config)
                    .ValueOrDie());
  const std::vector<float> scores = client.Score(pairs_).ValueOrDie();
  EXPECT_EQ(scores.size(), pairs_.size());
  EXPECT_GE(client.retries_attempted(), 1);
  server->Stop();
}

// ------------------------------------------ tracing under chaos (§17) --

// Slow-exemplar capture keeps working while the frame layer is failing
// and the store hot-reloads between traced requests: every logical call
// that ultimately succeeds lands in the private event log as a slow
// exemplar (threshold 1us) under its deterministic request ID, and the
// scores stay bitwise-identical throughout — tracing observes the chaos,
// it never changes the outcome.
TEST_F(ServeChaosFixture, ExemplarCaptureSurvivesFrameFaultsAndReload) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  obs::EventLog log(/*capacity=*/64, /*exemplar_capacity=*/16);
  ServerConfig server_config;
  server_config.event_log = &log;
  server_config.slow_threshold_us = 1;  // every request is an exemplar
  auto server = std::move(
      ScoringServer::Start(stores.get(), &metrics, server_config)
          .ValueOrDie());

  const std::vector<float> expected =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();

  ClientConfig config;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_ms = 1;
  config.request_id_seed = 0xC4A05;
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(), config)
                    .ValueOrDie());

  // Leg 1: the tagged request frame dies on the wire. The retry re-sends
  // the identical bytes — same request ID — and must still be captured.
  fault::Configure("serve.frame.send=fail@1");
  const std::vector<float> first = client.Score(pairs_).ValueOrDie();
  EXPECT_EQ(client.retries_attempted(), 1);
  const uint64_t first_id = DeriveRequestId(0xC4A05, 0);
  EXPECT_EQ(client.last_trace().request_id, first_id);

  // Leg 2: a hot-reload swaps the generation between the traced calls
  // (itself a logical call, so it draws request ID n = 1).
  fault::Configure("");
  ASSERT_EQ(client.Reload().ValueOrDie(), 2);

  // Leg 3: a recv fault kills a frame mid-flight (whichever side hits the
  // site first); the client reconnects and the retried call still traces.
  fault::Configure("serve.frame.recv=fail@1");
  const std::vector<float> second = client.Score(pairs_).ValueOrDie();
  EXPECT_GE(client.retries_attempted(), 2);
  const uint64_t second_id = DeriveRequestId(0xC4A05, 2);
  EXPECT_EQ(client.last_trace().request_id, second_id);
  fault::Configure("");

  ASSERT_EQ(first.size(), expected.size());
  ASSERT_EQ(second.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(first[i], expected[i]) << "pair " << i;
    ASSERT_EQ(second[i], expected[i]) << "pair " << i;
  }
  server->Stop();

  // Both logical calls survived into the exemplar ring despite the frame
  // faults and the generation swap in between.
  EXPECT_GE(log.slow_recorded(), 2);
  const std::string jsonl = log.DumpJsonl();
  for (const uint64_t id : {first_id, second_id}) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(id));
    EXPECT_NE(jsonl.find(hex), std::string::npos)
        << "request " << hex << " missing from event log:\n" << jsonl;
  }
  EXPECT_NE(jsonl.find("\"slow\": true"), std::string::npos) << jsonl;
}

// The headline test: concurrent scoring clients ride through a burst of
// back-to-back hot-reloads with zero failures, monotonic generations,
// and bitwise-identical scores before, during, and after the swaps.
TEST_F(ServeChaosFixture, ReloadUnderLoadLosesNothing) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  ServerConfig server_config;
  server_config.num_threads = 4;
  auto server = std::move(
      ScoringServer::Start(stores.get(), &metrics, server_config)
          .ValueOrDie());

  const std::vector<float> expected =
      stores->Current()->engine->ScoreBatch(pairs_).ValueOrDie();

  constexpr int kClients = 3;
  constexpr int kRounds = 25;
  constexpr int kReloads = 4;
  std::vector<Status> statuses(kClients);
  // hignn-lint: allow(naked-thread) socket clients block on IO
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientConfig config;
      config.retry.max_attempts = 4;
      config.retry.initial_backoff_ms = 1;
      config.retry.jitter_seed = 1000 + static_cast<uint64_t>(c);
      auto client =
          ScoringClient::Connect("127.0.0.1", server->port(), config);
      if (!client.ok()) {
        statuses[static_cast<size_t>(c)] = client.status();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto scores = client.value().Score(pairs_);
        if (!scores.ok()) {
          statuses[static_cast<size_t>(c)] = scores.status();
          return;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (scores.value()[i] != expected[i]) {
            statuses[static_cast<size_t>(c)] = Status::Internal(
                "score drifted across a reload");
            return;
          }
        }
      }
    });
  }

  // Back-to-back reloads racing the traffic above.
  int64_t last_generation = 1;
  auto reloader =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());
  for (int r = 0; r < kReloads; ++r) {
    const int64_t generation = reloader.Reload().ValueOrDie();
    EXPECT_EQ(generation, last_generation + 1) << "reload " << r;
    last_generation = generation;
  }

  // hignn-lint: allow(naked-thread) joining the socket clients
  for (std::thread& t : clients) t.join();
  server->Stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(statuses[static_cast<size_t>(c)].ok())
        << "client " << c << ": "
        << statuses[static_cast<size_t>(c)].ToString();
  }
  EXPECT_EQ(stores->generation(), 1 + kReloads);
  obs::MetricsRegistry& registry = metrics.registry();
  EXPECT_EQ(registry.GetCounter("serve.reload_total").value(), kReloads);
  EXPECT_EQ(registry.GetCounter("serve.reload_failed_total").value(), 0);
  EXPECT_EQ(registry.GetGauge("serve.store_generation").value(),
            static_cast<double>(1 + kReloads));
}

}  // namespace
}  // namespace hignn
