// Online serving subsystem tests: store export/load integrity, bitwise
// offline-vs-online score parity, the full TCP round trip, concurrency
// determinism, and overload behaviour.
//
// The parity tests are the heart: the serving path reassembles feature
// rows from the store's precomputed pieces and runs the exported MLP, so
// a (user, item) score over TCP must equal the offline
// CvrModel::Predict float bit for bit — any batching, any thread count.

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "obs/event_log.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/request_id.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "serve/wire.h"
#include "topk_oracle_testing.h"
#include "util/crc32.h"
#include "util/status.h"
#include "util/string_util.h"

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

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// One trained pipeline shared by every test: dataset -> hierarchy ->
// CVR network -> exported store. Mirrors what `hignn export-store` does.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig data_config = SyntheticConfig::Tiny();
    data_config.num_users = 300;
    data_config.num_items = 120;
    data_config.num_days = 6;
    data_config.mean_clicks_per_user_day = 3.0;
    dataset_ = new SyntheticDataset(
        SyntheticDataset::Generate(data_config).ValueOrDie());

    HignnConfig hignn_config;
    hignn_config.levels = 2;
    hignn_config.sage.dims = {8, 8};
    hignn_config.sage.fanouts = {5, 3};
    hignn_config.sage.train_steps = 40;
    hignn_config.min_clusters = 2;
    model_ = new HignnModel(
        Hignn::Fit(dataset_->BuildTrainGraph(), dataset_->user_features(),
                   dataset_->item_features(), hignn_config)
            .ValueOrDie());

    spec_ = FeatureSpec::HiGnn(model_->num_levels());
    builder_ = new CvrFeatureBuilder(
        CvrFeatureBuilder::Create(dataset_, model_, spec_).ValueOrDie());
    samples_ = new SampleSet(BuildSamples(*dataset_, true, 99));

    CvrModelConfig cvr_config;
    cvr_config.hidden = {32, 16};
    cvr_config.epochs = 2;
    cvr_config.batch_size = 256;
    cvr_ = new CvrModel(
        CvrModel::Create(builder_->dim(), cvr_config).ValueOrDie());
    EXPECT_TRUE(cvr_->Train(*builder_, samples_->train).ok());

    store_path_ = TempPath("serve_fixture.hgnnstore");
    EXPECT_TRUE(
        ExportEmbeddingStore(*model_, *dataset_, spec_, *cvr_, store_path_)
            .ok());
  }

  static void TearDownTestSuite() {
    delete cvr_;
    delete samples_;
    delete builder_;
    delete model_;
    delete dataset_;
    cvr_ = nullptr;
    samples_ = nullptr;
    builder_ = nullptr;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  /// First `count` test-day samples as serving requests.
  static std::vector<ScoreRequest> TestPairs(size_t count) {
    std::vector<ScoreRequest> pairs;
    for (size_t i = 0; i < count && i < samples_->test.size(); ++i) {
      pairs.push_back(
          {samples_->test[i].user, samples_->test[i].item});
    }
    return pairs;
  }

  /// Offline reference scores for `pairs` through the original builder +
  /// a fresh copy of the trained CVR network.
  static std::vector<float> OfflineScores(
      const std::vector<ScoreRequest>& pairs) {
    std::vector<LabeledSample> samples;
    for (const ScoreRequest& pair : pairs) {
      samples.push_back({pair.user, pair.item, 0.0f});
    }
    CvrModel offline = *cvr_;
    return offline.Predict(*builder_, samples).ValueOrDie();
  }

  static SyntheticDataset* dataset_;
  static HignnModel* model_;
  static CvrFeatureBuilder* builder_;
  static SampleSet* samples_;
  static CvrModel* cvr_;
  static FeatureSpec spec_;
  static std::string store_path_;
};

SyntheticDataset* ServeFixture::dataset_ = nullptr;
HignnModel* ServeFixture::model_ = nullptr;
CvrFeatureBuilder* ServeFixture::builder_ = nullptr;
SampleSet* ServeFixture::samples_ = nullptr;
CvrModel* ServeFixture::cvr_ = nullptr;
FeatureSpec ServeFixture::spec_;
std::string ServeFixture::store_path_;

// ---------------------------------------------------------------- store --

TEST_F(ServeFixture, StoreRoundTripsMetadataAndChains) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  EXPECT_EQ(store->num_users(), 300);
  EXPECT_EQ(store->num_items(), 120);
  EXPECT_EQ(store->level_dim(), model_->level_dim());
  EXPECT_EQ(store->chain_levels(), model_->num_levels());
  EXPECT_EQ(store->feature_dim(), builder_->dim());
  EXPECT_EQ(store->spec().user_levels, spec_.user_levels);
  EXPECT_EQ(store->spec().item_levels, spec_.item_levels);

  // The item chains, as the retrieval index reads them.
  const ClusterTreeIndex::Source source = store->IndexSource();
  ASSERT_EQ(source.chain_levels, model_->num_levels());
  const size_t items = static_cast<size_t>(store->num_items());
  for (int32_t level = 1; level <= source.chain_levels; ++level) {
    for (int32_t item = 0; item < store->num_items(); ++item) {
      ASSERT_EQ(source.right_chain[static_cast<size_t>(level - 1) * items +
                                   static_cast<size_t>(item)],
                model_->RightClusterAt(item, level))
          << "item " << item << " level " << level;
    }
  }
}

TEST_F(ServeFixture, StoreEmbeddingBlocksMatchModelBitwise) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  const Matrix user_hier =
      model_->AllHierarchicalLeft(spec_.user_levels);
  const Matrix item_hier =
      model_->AllHierarchicalRight(spec_.item_levels);
  for (int32_t user = 0; user < store->num_users(); ++user) {
    ASSERT_EQ(0, std::memcmp(store->UserBlock(user),
                             user_hier.row(static_cast<size_t>(user)),
                             user_hier.cols() * sizeof(float)))
        << "user " << user;
  }
  for (int32_t item = 0; item < store->num_items(); ++item) {
    ASSERT_EQ(0, std::memcmp(store->ItemBlock(item),
                             item_hier.row(static_cast<size_t>(item)),
                             item_hier.cols() * sizeof(float)))
        << "item " << item;
  }
}

TEST_F(ServeFixture, FillFeatureRowMatchesOfflineBuilderBitwise) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  ASSERT_GE(samples_->test.size(), 64u);
  std::vector<LabeledSample> probe(samples_->test.begin(),
                                   samples_->test.begin() + 64);
  const Matrix offline = builder_->BuildAll(probe);
  ASSERT_EQ(offline.cols(), static_cast<size_t>(store->feature_dim()));
  std::vector<float> row(static_cast<size_t>(store->feature_dim()));
  for (size_t i = 0; i < probe.size(); ++i) {
    ASSERT_TRUE(
        store->FillFeatureRow(probe[i].user, probe[i].item, row.data())
            .ok());
    ASSERT_EQ(0, std::memcmp(row.data(), offline.row(i),
                             row.size() * sizeof(float)))
        << "row " << i << " (user " << probe[i].user << ", item "
        << probe[i].item << ")";
  }
}

TEST_F(ServeFixture, TruncatedStoreIsRejectedBeforeParsing) {
  const std::string bytes = ReadBytes(store_path_);
  ASSERT_GT(bytes.size(), 256u);
  const std::string truncated_path = TempPath("serve_truncated.hgnnstore");
  WriteBytes(truncated_path, bytes.substr(0, bytes.size() - 64));
  auto store = EmbeddingStore::Open(truncated_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

TEST_F(ServeFixture, BitFlippedStoreIsRejectedBeforeParsing) {
  std::string bytes = ReadBytes(store_path_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string corrupt_path = TempPath("serve_corrupt.hgnnstore");
  WriteBytes(corrupt_path, bytes);
  auto store = EmbeddingStore::Open(corrupt_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

// Rewrites every section CRC and the footer CRC of the util/io container
// in `bytes`, so an in-place payload edit passes the checksums and only
// the structural checks behind them can reject it. Footer (util/io.h):
// per-section (u64 length, u32 crc), u32 count, u32 footer crc, "HGNC".
void ResealContainer(std::string& bytes) {
  constexpr size_t kEntryBytes = sizeof(uint64_t) + sizeof(uint32_t);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + bytes.size() - 12, sizeof(count));
  char* table = bytes.data() + bytes.size() - 12 - count * kEntryBytes;
  uint32_t footer = kCrc32Init;
  size_t offset = 0;
  for (uint32_t section = 0; section < count; ++section) {
    char* entry = table + section * kEntryBytes;
    uint64_t length = 0;
    std::memcpy(&length, entry, sizeof(length));
    const uint32_t crc = Crc32(bytes.data() + offset, length);
    std::memcpy(entry + sizeof(length), &crc, sizeof(crc));
    footer = Crc32Extend(footer, entry, kEntryBytes);
    offset += length;
  }
  footer = Crc32Finish(Crc32Extend(footer, &count, sizeof(count)));
  std::memcpy(bytes.data() + bytes.size() - 8, &footer, sizeof(footer));
}

// Only the current store version opens. The store version is the first
// u32 of the meta section, right after the 12-byte container header.
TEST_F(ServeFixture, StoreOfAnotherVersionIsRejected) {
  const std::string bytes = ReadBytes(store_path_);
  const std::string path = TempPath("serve_other_version.hgnnstore");
  for (const uint32_t version : {3u, 2u, 4u}) {
    SCOPED_TRACE(version);
    std::string patched = bytes;
    std::memcpy(patched.data() + 12, &version, sizeof(version));
    ResealContainer(patched);
    WriteBytes(path, patched);
    auto store = EmbeddingStore::Open(path);
    if (version == 3) {
      // Resealing an unchanged store leaves it loadable.
      EXPECT_TRUE(store.ok()) << store.status().ToString();
      continue;
    }
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kIOError);
    const std::string expected =
        StrFormat("unsupported embedding store version %u", version);
    EXPECT_NE(store.status().message().find(expected), std::string::npos)
        << store.status().ToString();
  }
}

// --------------------------------------------------------------- engine --

TEST_F(ServeFixture, EngineScoresMatchOfflinePredictBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(200);
  const std::vector<float> expected = OfflineScores(pairs);
  const std::vector<float> actual =
      engine->ScoreBatch(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }
}

TEST_F(ServeFixture, EngineScoresAreInvariantToBatchComposition) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(48);
  const std::vector<float> together =
      engine->ScoreBatch(pairs).ValueOrDie();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::vector<float> alone =
        engine->ScoreBatch({pairs[i]}).ValueOrDie();
    ASSERT_EQ(alone.size(), 1u);
    ASSERT_EQ(alone[0], together[i]) << "pair " << i;
  }
}

TEST_F(ServeFixture, OneUserBatchScoresEqualSinglePairBatchesBitwise) {
  // Every row of a one-user batch shares the user block, which the
  // forward multiplies once; each score must still be its own pair's.
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t user = TestPairs(1).front().user;
  std::vector<ScoreRequest> batch;
  for (int32_t i = 0; i < 48; ++i) batch.push_back({user, (i * 7) % 40});
  const std::vector<float> together = engine->ScoreBatch(batch).ValueOrDie();
  ASSERT_EQ(together.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<float> alone =
        engine->ScoreBatch({batch[i]}).ValueOrDie();
    ASSERT_EQ(std::bit_cast<uint32_t>(alone.at(0)),
              std::bit_cast<uint32_t>(together[i]))
        << "item " << batch[i].item;
  }
}

TEST_F(ServeFixture, ExactScanTopKReturnsPerPairScores) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t user = TestPairs(1).front().user;
  const int32_t items = engine->store().num_items();
  const std::vector<Recommendation> ranked =
      engine->RecommendTopK(user, items, -1).ValueOrDie();
  ASSERT_EQ(ranked.size(), static_cast<size_t>(items));
  for (const Recommendation& rec : ranked) {
    const std::vector<float> alone =
        engine->ScoreBatch({{user, rec.item}}).ValueOrDie();
    ASSERT_EQ(std::bit_cast<uint32_t>(alone.at(0)),
              std::bit_cast<uint32_t>(rec.score))
        << "item " << rec.item;
  }
}

// SelectLeaves as a per-row oracle: every frontier row assembled alone
// (one AssembleFeatureRows call per row, the scalar match-dot chain), each
// level forwarded through PredictRows and ranked by the partial_sort
// oracle. `scored` receives each scored level's frontier size.
std::vector<int32_t> OracleLeaves(const EmbeddingStore& store, int32_t user,
                                  int32_t beam, std::vector<size_t>* scored) {
  const ClusterTreeIndex& index = store.index();
  const FeatureRowLayout& layout = index.geometry();
  const size_t block_cols = static_cast<size_t>(layout.item_block_cols);
  const size_t tail_dim = static_cast<size_t>(layout.item_tail_dim);
  std::vector<int32_t> frontier(
      static_cast<size_t>(index.level(index.num_levels()).num_clusters));
  std::iota(frontier.begin(), frontier.end(), 0);
  for (int32_t l = index.num_levels(); l >= 1; --l) {
    const ClusterTreeLevel& level = index.level(l);
    if (frontier.size() > static_cast<size_t>(beam)) {
      scored->push_back(frontier.size());
      Matrix rows(frontier.size(), static_cast<size_t>(layout.feature_dim));
      for (size_t i = 0; i < frontier.size(); ++i) {
        const size_t c = static_cast<size_t>(frontier[i]);
        const ItemSource item{level.centroid_block + c * block_cols,
                              level.centroid_tail + c * tail_dim};
        AssembleFeatureRows(layout, store.UserBlock(user),
                            store.UserTail(user), &item, 1, rows.row(i));
      }
      const std::vector<Recommendation> kept = OracleTopKByScore(
          frontier, store.model().PredictRows(rows).ValueOrDie(), beam);
      frontier.clear();
      for (const Recommendation& rec : kept) frontier.push_back(rec.item);
      std::sort(frontier.begin(), frontier.end());
    }
    std::vector<int32_t> next;
    for (const int32_t c : frontier) {
      next.insert(next.end(), level.child_ids + level.child_offsets[c],
                  level.child_ids + level.child_offsets[c + 1]);
    }
    frontier = std::move(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

// Beams small enough that the scored frontiers change size from level to
// level and leave rows past a full group of 4, so the matrix SelectLeaves
// reuses across levels, the kernel's lanes and its remainder rows are all
// exercised.
TEST_F(ServeFixture, DescentOnUnevenFrontiersEqualsPerRowOracleBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const EmbeddingStore& store = engine->store();
  ASSERT_GE(store.index().num_levels(), 2);
  const CvrModel& model = store.model();
  const ClusterTreeIndex::RowScorer scorer = [&model](const Matrix& rows) {
    return model.PredictRows(rows);
  };
  bool size_changed = false;
  bool remainder_rows = false;
  for (const int32_t beam : {1, 2, 3, 5}) {
    for (int32_t user = 0; user < store.num_users(); user += 7) {
      std::vector<size_t> scored;
      const std::vector<int32_t> want = OracleLeaves(store, user, beam,
                                                     &scored);
      for (size_t i = 0; i < scored.size(); ++i) {
        remainder_rows =
            remainder_rows || (scored[i] > 4 && scored[i] % 4 != 0);
        size_changed = size_changed || (i > 0 && scored[i] != scored[i - 1]);
      }
      const std::vector<int32_t> got =
          store.index()
              .SelectLeaves(store.UserBlock(user), store.UserTail(user),
                            beam, scorer, nullptr)
              .ValueOrDie();
      ASSERT_EQ(got, want) << "user " << user << " beam " << beam;

      Matrix rows(want.size(), static_cast<size_t>(store.feature_dim()));
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(store.FillFeatureRow(user, want[i], rows.row(i)).ok());
      }
      const std::vector<Recommendation> want_top = OracleTopKByScore(
          want, model.PredictRows(rows).ValueOrDie(), 10);
      const std::vector<Recommendation> got_top =
          engine->RecommendTopK(user, 10, beam).ValueOrDie();
      ASSERT_EQ(got_top.size(), want_top.size());
      for (size_t i = 0; i < got_top.size(); ++i) {
        ASSERT_EQ(got_top[i].item, want_top[i].item)
            << "user " << user << " beam " << beam << " rank " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(got_top[i].score),
                  std::bit_cast<uint32_t>(want_top[i].score))
            << "user " << user << " beam " << beam << " rank " << i;
      }
    }
  }
  EXPECT_TRUE(size_changed);
  EXPECT_TRUE(remainder_rows);
}

TEST_F(ServeFixture, EngineRejectsInvalidIds) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  auto bad_user = engine->ScoreBatch({{engine->store().num_users(), 0}});
  ASSERT_FALSE(bad_user.ok());
  EXPECT_EQ(bad_user.status().code(), StatusCode::kInvalidArgument);
  auto bad_item = engine->ScoreBatch({{0, -1}});
  ASSERT_FALSE(bad_item.ok());
  EXPECT_EQ(bad_item.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- batcher --

TEST_F(ServeFixture, BatcherStopRejectsNewWorkAfterDraining) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  MicroBatcher batcher(stores.get(), &metrics, BatcherConfig());
  EXPECT_TRUE(batcher.Score(TestPairs(4)).ok());
  batcher.Stop();
  auto after = batcher.Score(TestPairs(1));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, BatcherShedsRequestsBeyondTheQueueBound) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  BatcherConfig config;
  config.max_queue_rows = 8;
  MicroBatcher batcher(stores.get(), &metrics, config);
  auto shed = batcher.Score(TestPairs(16));  // 16 rows > bound of 8
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(metrics.registry().GetCounter("serve.shed_total").value(), 1);
  EXPECT_TRUE(batcher.Score(TestPairs(4)).ok());  // still serving
}

// ----------------------------------------------------------- TCP server --

TEST_F(ServeFixture, TcpRoundTripScoresMatchOfflineBitwise) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  const std::vector<ScoreRequest> pairs = TestPairs(64);
  const std::vector<float> expected = OfflineScores(pairs);
  const std::vector<float> actual = client.Score(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }

  EXPECT_TRUE(client.Health().ok());
  auto bad = client.Score({{-1, 0}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  server->Stop();
}

TEST_F(ServeFixture, TcpTopKMatchesEngineRanking) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  const std::shared_ptr<const StoreGeneration> generation = stores->Current();
  for (int32_t user : {0, 7, 123}) {
    const std::vector<Recommendation> expected =
        generation->engine->RecommendTopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> actual =
        client.TopK(user, 5).ValueOrDie();
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "user " << user << " rank " << i;
    }
  }
  server->Stop();
}

TEST_F(ServeFixture, TcpStatsReportsServedTraffic) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  EXPECT_TRUE(client.Score(TestPairs(8)).ok());
  EXPECT_TRUE(client.Health().ok());
  // {"daemon": {...}, "registry": <MetricsRegistry::DumpJson()>}: the
  // score and health requests are already counted, this stats one not yet.
  const std::string json = client.Stats().ValueOrDie();
  EXPECT_EQ(json.rfind("{\"daemon\": {\"start_generation\": 1, ", 0), 0u)
      << json;
  EXPECT_NE(json.find("},\n\"registry\": {\n  \"counters\": {"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.requests.score\": 1,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.requests.health\": 1,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.requests.stats\": 0,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.latency_us\": {\"count\": 2,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.batch_rows\": {\"count\": 1,"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.substr(json.size() - 4), "}\n}\n") << json;
  EXPECT_EQ(metrics.batches_total(), 1);
  server->Stop();
}

TEST_F(ServeFixture, TcpOverloadShedsWithFastFailure) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  ServerConfig config;
  config.batcher.max_queue_rows = 8;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port())
                    .ValueOrDie());

  auto shed = client.Score(TestPairs(16));  // 16 rows > bound of 8
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(metrics.registry().GetCounter("serve.shed_total").value(), 1);
  EXPECT_TRUE(client.Score(TestPairs(4)).ok());  // recovered immediately
  server->Stop();
}

// ------------------------------------------------- request tracing (§17) --

// Speaks raw frames so a test can send bytes no client emits.
class RawWireClient {
 public:
  explicit RawWireClient(int32_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawWireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One frame out, one frame back; returns the raw response payload
  /// (status byte included).
  std::vector<char> RoundTrip(const std::vector<char>& frame) {
    EXPECT_TRUE(SendFrame(fd_, frame).ok());
    auto response = RecvFrame(fd_);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : std::vector<char>{};
  }

 private:
  int fd_ = -1;
};

TEST(RequestIdTest, StreamIsDeterministicNonZeroAndSeedScoped) {
  for (uint64_t n = 0; n < 100; ++n) {
    const uint64_t id = DeriveRequestId(0xFEED, n);
    EXPECT_EQ(id, DeriveRequestId(0xFEED, n));    // pure function
    EXPECT_NE(id, 0u);                            // 0 is "untraced"
    EXPECT_NE(id, DeriveRequestId(0xBEEF, n));    // seeds partition IDs
    if (n > 0) {
      EXPECT_NE(id, DeriveRequestId(0xFEED, n - 1));
    }
  }
}

TEST_F(ServeFixture, TracedScoreEchoesStampsAndLandsInTheEventLog) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  obs::EventLog log(/*capacity=*/64, /*exemplar_capacity=*/8);
  ServerConfig config;
  config.event_log = &log;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

  const std::vector<ScoreRequest> pairs = TestPairs(8);
  const std::vector<float> expected = OfflineScores(pairs);

  ClientConfig traced_config;
  traced_config.request_id_seed = 0xFEED;
  auto traced =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(),
                                       traced_config)
                    .ValueOrDie());

  // Tracing must not perturb a single bit of the scores (§11).
  const std::vector<float> actual = traced.Score(pairs).ValueOrDie();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pair " << i;
  }

  // The echoed trace carries the predicted ID and ordered stamps.
  const obs::Event trace = traced.last_trace();
  const int64_t* stamp = trace.stamps;
  EXPECT_EQ(trace.request_id, DeriveRequestId(0xFEED, 0));
  EXPECT_GE(stamp[obs::kPhaseAccept], 0);
  EXPECT_GE(stamp[obs::kPhaseParse], stamp[obs::kPhaseAccept]);
  EXPECT_GE(stamp[obs::kPhaseEnqueue], stamp[obs::kPhaseParse]);
  EXPECT_GE(stamp[obs::kPhaseBatchClose], stamp[obs::kPhaseEnqueue]);
  EXPECT_GE(stamp[obs::kPhaseRowsAssembled], stamp[obs::kPhaseBatchClose]);
  EXPECT_GE(stamp[obs::kPhaseForwardDone], stamp[obs::kPhaseRowsAssembled]);
  // A score never descends the tree; the flush is unknowable before it.
  EXPECT_EQ(stamp[obs::kPhaseIndexDescent], -1);
  EXPECT_EQ(stamp[obs::kPhaseReplyFlushed], -1);

  // A beamed topk descends the index instead of closing a batch.
  EXPECT_TRUE(traced.TopK(3, 5).ok());
  const int64_t* topk = traced.last_trace().stamps;
  EXPECT_EQ(traced.last_trace().request_id, DeriveRequestId(0xFEED, 1));
  EXPECT_GE(topk[obs::kPhaseIndexDescent], topk[obs::kPhaseParse]);
  EXPECT_GE(topk[obs::kPhaseRowsAssembled], topk[obs::kPhaseIndexDescent]);
  EXPECT_EQ(topk[obs::kPhaseEnqueue], -1);
  EXPECT_EQ(topk[obs::kPhaseBatchClose], -1);

  server->Stop();  // joins handlers: every event is recorded by now

  EXPECT_EQ(log.recorded(), 2);
  const std::string jsonl = log.DumpJsonl();
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(trace.request_id));
  EXPECT_NE(jsonl.find(std::string("\"request_id\": \"") + id_hex + "\""),
            std::string::npos)
      << jsonl;
  // The phase histograms saw both requests.
  EXPECT_GE(metrics.registry()
                .GetHistogram("serve.phase.parse_us", {})
                .count(),
            2);
  EXPECT_GE(metrics.registry()
                .GetHistogram("serve.phase.forward_us", {})
                .count(),
            2);
}

// Frames of every earlier request layout are a kBadRequest naming the
// expected and received lengths, logged as failed; the connection stays
// usable and answers the next valid frame, logged as untraced.
TEST_F(ServeFixture, LegacyFramesAreBadRequestsAndTheConnectionServesOn) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  obs::EventLog log(/*capacity=*/64, /*exemplar_capacity=*/8);
  ServerConfig config;
  config.event_log = &log;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());
  RawWireClient raw(server->port());

  // Little-endian frame builder for layouts the codec does not write.
  const auto frame = [](WireVerb verb, std::initializer_list<uint32_t> words) {
    std::vector<char> bytes{static_cast<char>(verb)};
    for (uint32_t word : words) {
      for (int b = 0; b < 4; ++b) {
        bytes.push_back(static_cast<char>((word >> (8 * b)) & 0xffu));
      }
    }
    return bytes;
  };
  // kTopK user 3, k 5, beam 0: the 13-byte body before request IDs.
  const std::vector<char> legacy_topk = frame(WireVerb::kTopK, {3, 5, 0});
  // kScore with one (3, 7) pair and no request ID.
  const std::vector<char> legacy_score = frame(WireVerb::kScore, {1, 3, 7});
  for (const std::vector<char>& legacy : {legacy_topk, legacy_score}) {
    const std::vector<char> response = raw.RoundTrip(legacy);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(static_cast<WireStatus>(response[0]), WireStatus::kBadRequest);
    const std::string message(response.begin() + 5, response.end());
    EXPECT_NE(message.find(StrFormat("received %zu", legacy.size())),
              std::string::npos)
        << message;
  }

  const WireRequest health(WireVerb::kHealth);
  const std::vector<char> response = raw.RoundTrip(EncodeRequest(health));
  const WireReply reply = DecodeReply(health, response).ValueOrDie();
  EXPECT_EQ(reply.status, WireStatus::kOk);
  EXPECT_EQ(reply.generation, 1u);

  server->Stop();
  EXPECT_EQ(log.recorded(), 3);
  const std::string jsonl = log.DumpJsonl();
  size_t failed = 0;
  for (size_t at = jsonl.find("\"ok\": false"); at != std::string::npos;
       at = jsonl.find("\"ok\": false", at + 1)) {
    ++failed;
  }
  EXPECT_EQ(failed, 2u) << jsonl;
  EXPECT_NE(jsonl.find("\"request_id\": \"0000000000000000\", \"verb\": 3, "
                       "\"ok\": true"),
            std::string::npos)
      << jsonl;
  EXPECT_EQ(metrics.registry().GetCounter("serve.errors.topk").value(), 1);
  EXPECT_EQ(metrics.registry().GetCounter("serve.errors.score").value(), 1);
  EXPECT_EQ(metrics.registry().GetCounter("serve.errors.health").value(), 0);
}

TEST_F(ServeFixture, StatsCarriesTheDaemonSectionAndMetricsVerbsServe) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  ServerConfig config;
  config.slow_threshold_us = 1234;
  auto server =
      std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

  ClientConfig traced_config;
  traced_config.request_id_seed = 0x5EED;
  auto client =
      std::move(ScoringClient::Connect("127.0.0.1", server->port(),
                                       traced_config)
                    .ValueOrDie());
  EXPECT_TRUE(client.Score(TestPairs(4)).ok());

  const std::string json = client.Stats().ValueOrDie();
  EXPECT_NE(json.find("\"daemon\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"start_generation\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_threshold_us\": 1234"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"uptime_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"events_recorded\""), std::string::npos) << json;

  // Prometheus exposition straight off the shared registry.
  const std::string prom = client.Metrics().ValueOrDie();
  EXPECT_NE(prom.find("# TYPE hignn_serve_requests_score counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hignn_serve_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE hignn_serve_phase_forward_us histogram"),
            std::string::npos)
      << prom;

  // trace-dump returns the JSONL view of the global event log; this
  // server records into the global log (config.event_log defaulted), so
  // the traced request's ID must appear.
  const std::string jsonl = client.TraceDump().ValueOrDie();
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "%016llx",
                static_cast<unsigned long long>(DeriveRequestId(0x5EED, 0)));
  EXPECT_NE(jsonl.find(id_hex), std::string::npos) << jsonl;
  server->Stop();
}

// Scores must be identical whether one handler serializes every request
// or four handlers interleave them — the determinism half of the serving
// contract, checked end to end through real sockets.
TEST_F(ServeFixture, ConcurrentClientsGetIdenticalScoresAtAnyThreadCount) {
  ServeMetrics store_metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &store_metrics).ValueOrDie());
  const std::vector<ScoreRequest> pairs = TestPairs(32);
  const std::vector<float> expected = OfflineScores(pairs);

  for (int32_t num_threads : {1, 4}) {
    ServeMetrics metrics;
    ServerConfig config;
    config.num_threads = num_threads;
    auto server =
        std::move(
      ScoringServer::Start(stores.get(), &metrics, config).ValueOrDie());

    constexpr int kClients = 4;
    constexpr int kRoundsPerClient = 5;
    std::vector<std::vector<float>> results(kClients);
    std::vector<Status> statuses(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = ScoringClient::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          statuses[c] = client.status();
          return;
        }
        for (int round = 0; round < kRoundsPerClient; ++round) {
          auto scores = client.value().Score(pairs);
          if (!scores.ok()) {
            statuses[c] = scores.status();
            return;
          }
          if (round + 1 == kRoundsPerClient) {
            results[c] = std::move(scores).value();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server->Stop();

    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(statuses[c].ok())
          << "client " << c << " at " << num_threads << " threads: "
          << statuses[c].ToString();
      ASSERT_EQ(results[c].size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(results[c][i], expected[i])
            << "client " << c << " pair " << i << " at " << num_threads
            << " server threads";
      }
    }
  }
}

}  // namespace
}  // namespace hignn
