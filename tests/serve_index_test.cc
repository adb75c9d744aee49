// Cluster-tree retrieval index tests (serve/index/cluster_tree.h): the
// exactness knob (beam <= 0 and beam = "infinity" are bitwise identical
// to the linear scan), determinism across thread counts and hot-reload
// generations, recall@10 at the default beam on a planted hierarchy,
// stored index sections byte-identical to a rebuild from the store's own
// arrays, rejection of corrupted/truncated index sections, the wire
// protocol's per-request beam field, and the shared TopKByScore
// tie-break contract both paths rest on, held to a partial_sort oracle.

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/planted.h"
#include "obs/metrics.h"
#include "predict/recommender.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/index/cluster_tree.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "topk_oracle_testing.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

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

// One planted world shared by every test: cluster structure and score
// landscape are planted (data/planted.h), so beam descent has a
// hierarchy it can actually route — exported twice, so a hot reload can
// swap in a second file with the same contents.
class PlantedIndexFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PlantedWorldConfig config;
    config.num_users = 200;
    config.num_items = 4000;
    config.level_dim = 8;
    config.cvr_train_samples = 12000;
    config.cvr_epochs = 2;
    config.seed = 7;
    world_ = BuildPlantedWorld(config).ValueOrDie().release();

    store_path_ = TempPath("planted_index.hgnnstore");
    EXPECT_TRUE(ExportEmbeddingStore(world_->model, world_->dataset,
                                     world_->spec, world_->cvr, store_path_)
                    .ok());
    reexport_path_ = TempPath("planted_index_reexport.hgnnstore");
    EXPECT_TRUE(ExportEmbeddingStore(world_->model, world_->dataset,
                                     world_->spec, world_->cvr,
                                     reexport_path_)
                    .ok());
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static PlantedWorld* world_;
  static std::string store_path_;
  static std::string reexport_path_;
};

PlantedWorld* PlantedIndexFixture::world_ = nullptr;
std::string PlantedIndexFixture::store_path_;
std::string PlantedIndexFixture::reexport_path_;

// ------------------------------------------------------ tie-breaking --

// Satellite regression: TopKByScore must be an explicit total order
// (score desc, NaN last, ties by ascending id) for ANY candidate
// permutation — the property that makes the beamed and exact paths
// agree byte for byte on ties.
TEST(TopKByScoreOrder, TiesBreakByAscendingIdForAnyInputOrder) {
  const std::vector<int32_t> forward{3, 9, 1, 7, 5};
  const std::vector<float> scores_fwd{0.5f, 0.5f, 0.25f, 0.5f, 0.75f};
  const std::vector<int32_t> backward{5, 7, 1, 9, 3};
  const std::vector<float> scores_bwd{0.75f, 0.5f, 0.25f, 0.5f, 0.5f};

  const std::vector<Recommendation> a = TopKByScore(forward, scores_fwd, 4);
  const std::vector<Recommendation> b = TopKByScore(backward, scores_bwd, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "rank " << i;
  }
  EXPECT_EQ(a[0].item, 5);  // 0.75
  EXPECT_EQ(a[1].item, 3);  // 0.5 tie -> smallest id first
  EXPECT_EQ(a[2].item, 7);
  EXPECT_EQ(a[3].item, 9);
}

TEST(TopKByScoreOrder, NaNsRankLastAndTieByIdDeterministically) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<int32_t> forward{4, 2, 8, 6};
  const std::vector<float> scores_fwd{nan, 0.1f, nan, 0.9f};
  const std::vector<int32_t> backward{6, 8, 2, 4};
  const std::vector<float> scores_bwd{0.9f, nan, 0.1f, nan};

  const std::vector<Recommendation> a = TopKByScore(forward, scores_fwd, 4);
  const std::vector<Recommendation> b = TopKByScore(backward, scores_bwd, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(a[0].item, 6);
  EXPECT_EQ(a[1].item, 2);
  EXPECT_EQ(a[2].item, 4);  // NaN-vs-NaN tie -> ascending id
  EXPECT_EQ(a[3].item, 8);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(std::isnan(a[i].score), std::isnan(b[i].score)) << "rank " << i;
  }
}

// Packed-key selection against the partial_sort oracle on seeded random
// candidates: distinct items in shuffled order (negative ids included)
// whose scores come from a small pool, so ties are common, mixed with
// signed zeros, infinities, denormals and NaNs of both signs with quiet and
// signalling payloads.
TEST(TopKByScoreOrder, EqualsPartialSortOracleOnRandomCandidates) {
  const uint32_t specials[] = {0x00000000u, 0x80000000u, 0x7f800000u,
                               0xff800000u, 0x7fc00000u, 0xffc00000u,
                               0x7fc01234u, 0xffc04321u, 0x7f800001u,
                               0xff812345u, 0x00000001u, 0x80000001u};
  Rng rng(263);
  for (int32_t n = 0; n <= 300; ++n) {
    std::vector<int32_t> items(static_cast<size_t>(n));
    const int32_t first = static_cast<int32_t>(rng.UniformInt(41)) - 20;
    std::iota(items.begin(), items.end(), first);
    rng.Shuffle(items);
    std::vector<float> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(static_cast<float>(rng.Uniform(-1.0, 1.0)));
    }
    for (const uint32_t bits : specials) {
      pool.push_back(std::bit_cast<float>(bits));
    }
    std::vector<float> scores;
    for (int32_t i = 0; i < n; ++i) {
      scores.push_back(pool[rng.UniformInt(pool.size())]);
    }
    for (const int32_t k : {0, 1, n - 1, n, n + 5}) {
      const std::vector<Recommendation> got = TopKByScore(items, scores, k);
      const std::vector<Recommendation> want =
          OracleTopKByScore(items, scores, k);
      ASSERT_EQ(got.size(), want.size()) << "n " << n << " k " << k;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].item, want[i].item)
            << "n " << n << " k " << k << " rank " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i].score),
                  std::bit_cast<uint32_t>(want[i].score))
            << "n " << n << " k " << k << " rank " << i;
      }
    }
  }
}

// -------------------------------------------------------- exactness --

TEST_F(PlantedIndexFixture, BeamAtInfinityIsBitwiseIdenticalToLinearScan) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t num_items = engine->store().num_items();
  for (int32_t user : {0, 17, 63, 121, 199}) {
    const std::vector<Recommendation> exact =
        engine->RecommendTopK(user, 10).ValueOrDie();
    // beam <= 0: the explicit exactness knob.
    const std::vector<Recommendation> knob =
        engine->RecommendTopK(user, 10, -1).ValueOrDie();
    // beam >= every frontier: descent never prunes, all leaves survive.
    const std::vector<Recommendation> infinite =
        engine->RecommendTopK(user, 10, num_items).ValueOrDie();
    ASSERT_EQ(exact.size(), knob.size());
    ASSERT_EQ(exact.size(), infinite.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(exact[i], knob[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(exact[i], infinite[i]) << "user " << user << " rank " << i;
    }
  }
}

TEST_F(PlantedIndexFixture, BeamedSearchPrunesAndReportsStats) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  ClusterTreeIndex::SearchStats stats;
  const std::vector<Recommendation> top =
      engine->RecommendTopK(42, 10, kDefaultTopKBeam, &stats).ValueOrDie();
  EXPECT_EQ(top.size(), 10u);
  EXPECT_GT(stats.nodes_scored, 0);
  EXPECT_GT(stats.leaves_selected, 0);
  EXPECT_EQ(stats.levels_descended, engine->store().index().num_levels());
  // The whole point: far fewer rows through the MLP than a linear scan.
  EXPECT_LT(stats.nodes_scored + stats.leaves_selected,
            engine->store().num_items() / 2);
}

// ------------------------------------------------------ determinism --

TEST_F(PlantedIndexFixture, BeamedTopKIsIdenticalAcrossThreadCounts) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  std::vector<std::vector<Recommendation>> with_one, with_four;
  SetGlobalThreadPoolThreads(1);
  for (int32_t user : {3, 58, 142}) {
    with_one.push_back(
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie());
  }
  SetGlobalThreadPoolThreads(4);
  for (int32_t user : {3, 58, 142}) {
    with_four.push_back(
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie());
  }
  SetGlobalThreadPoolThreads(1);
  ASSERT_EQ(with_one.size(), with_four.size());
  for (size_t u = 0; u < with_one.size(); ++u) {
    ASSERT_EQ(with_one[u].size(), with_four[u].size());
    for (size_t i = 0; i < with_one[u].size(); ++i) {
      EXPECT_EQ(with_one[u][i], with_four[u][i])
          << "query " << u << " rank " << i;
    }
  }
}

// Request-level parallelism: four threads run beamed top-k, exact top-k
// and ScoreBatch — one batch larger than a forward chunk, so it takes the
// chunk-parallel pool path — on one engine at once. The engine holds no
// lock, so every result must still equal a single-threaded pass bit for
// bit.
TEST_F(PlantedIndexFixture, ConcurrentRequestsMatchASerialPassBitwise) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  const int32_t num_users = engine->store().num_users();
  const int32_t num_items = engine->store().num_items();
  std::vector<ScoreRequest> pairs(9000);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i] = ScoreRequest{static_cast<int32_t>(i * 7 % num_users),
                            static_cast<int32_t>(i * 13 % num_items)};
  }
  const std::vector<int32_t> users = {0, 41, 97, 150, 199};

  struct Pass {
    std::vector<std::vector<Recommendation>> beamed, exact;
    std::vector<float> scores;
  };
  const auto run = [&](size_t rotate) {
    Pass out;
    out.beamed.resize(users.size());
    out.exact.resize(users.size());
    for (size_t q = 0; q < users.size(); ++q) {
      const size_t slot = (q + rotate) % users.size();
      out.beamed[slot] =
          engine->RecommendTopK(users[slot], 10, kDefaultTopKBeam)
              .ValueOrDie();
      out.exact[slot] = engine->RecommendTopK(users[slot], 10, -1).ValueOrDie();
    }
    out.scores = engine->ScoreBatch(pairs).ValueOrDie();
    return out;
  };
  const auto same_bits = [](const std::vector<Recommendation>& a,
                            const std::vector<Recommendation>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].item != b[i].item ||
          std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  };

  SetGlobalThreadPoolThreads(4);
  const Pass serial = run(0);
  std::vector<Pass> concurrent(4);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < concurrent.size(); ++t) {
      threads.emplace_back([&, t] { concurrent[t] = run(t); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  SetGlobalThreadPoolThreads(1);

  for (size_t t = 0; t < concurrent.size(); ++t) {
    for (size_t q = 0; q < users.size(); ++q) {
      EXPECT_TRUE(same_bits(concurrent[t].beamed[q], serial.beamed[q]))
          << "thread " << t << " beamed user " << users[q];
      EXPECT_TRUE(same_bits(concurrent[t].exact[q], serial.exact[q]))
          << "thread " << t << " exact user " << users[q];
    }
    ASSERT_EQ(concurrent[t].scores.size(), pairs.size());
    EXPECT_EQ(0, std::memcmp(concurrent[t].scores.data(),
                             serial.scores.data(),
                             pairs.size() * sizeof(float)))
        << "thread " << t << " ScoreBatch";
  }
}

TEST_F(PlantedIndexFixture, BeamedTopKIsIdenticalAcrossHotReloads) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  const std::vector<Recommendation> before =
      stores->Current()
          ->engine->RecommendTopK(77, 10, kDefaultTopKBeam)
          .ValueOrDie();
  ASSERT_TRUE(stores->Reload().ok());
  ASSERT_TRUE(stores->Reload(reexport_path_).ok());  // a second export
  const std::vector<Recommendation> after =
      stores->Current()
          ->engine->RecommendTopK(77, 10, kDefaultTopKBeam)
          .ValueOrDie();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "rank " << i;
  }
}

// ----------------------------------------------------------- recall --

TEST_F(PlantedIndexFixture, DefaultBeamHoldsRecallAt10Above95Percent) {
  auto engine = std::move(PredictionEngine::Open(store_path_).ValueOrDie());
  int64_t hits = 0;
  int64_t wanted = 0;
  for (int32_t user = 0; user < engine->store().num_users(); user += 4) {
    const std::vector<Recommendation> exact =
        engine->RecommendTopK(user, 10).ValueOrDie();
    const std::vector<Recommendation> beamed =
        engine->RecommendTopK(user, 10, kDefaultTopKBeam).ValueOrDie();
    std::set<int32_t> found;
    for (const Recommendation& rec : beamed) found.insert(rec.item);
    for (const Recommendation& rec : exact) {
      ++wanted;
      hits += found.count(rec.item) ? 1 : 0;
    }
  }
  ASSERT_GT(wanted, 0);
  const double recall =
      static_cast<double>(hits) / static_cast<double>(wanted);
  EXPECT_GE(recall, 0.95) << hits << "/" << wanted;
}

// ----------------------------------------------- store format / load --

// The stored index sections are exactly what ClusterTreeIndex::Build
// makes of the store's own arrays: construction is a pure function of
// them, whoever runs it.
TEST_F(PlantedIndexFixture, LegacyStoreRebuildsByteIdenticalIndex) {
  auto store = std::move(EmbeddingStore::Open(store_path_).ValueOrDie());
  // Levels alias their own vectors, so the built index stays in place.
  const Result<ClusterTreeIndex> rebuilt =
      ClusterTreeIndex::Build(store->IndexSource());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const ClusterTreeIndex& a = store->index();
  const ClusterTreeIndex& b = rebuilt.value();
  ASSERT_EQ(a.num_levels(), b.num_levels());
  ASSERT_GE(a.num_levels(), 2);
  const int32_t block = a.geometry().item_block_cols;
  const int32_t tail = a.geometry().item_tail_dim;
  for (int32_t l = 1; l <= a.num_levels(); ++l) {
    const ClusterTreeLevel& la = a.level(l);
    const ClusterTreeLevel& lb = b.level(l);
    ASSERT_EQ(la.num_clusters, lb.num_clusters) << "level " << l;
    ASSERT_EQ(la.num_children, lb.num_children) << "level " << l;
    EXPECT_EQ(0, std::memcmp(la.centroid_block, lb.centroid_block,
                             static_cast<size_t>(la.num_clusters) *
                                 static_cast<size_t>(block) * sizeof(float)))
        << "level " << l << " centroid block";
    EXPECT_EQ(0, std::memcmp(la.centroid_tail, lb.centroid_tail,
                             static_cast<size_t>(la.num_clusters) *
                                 static_cast<size_t>(tail) * sizeof(float)))
        << "level " << l << " centroid tail";
    EXPECT_EQ(0,
              std::memcmp(la.child_offsets, lb.child_offsets,
                          static_cast<size_t>(la.num_clusters + 1) *
                              sizeof(int32_t)))
        << "level " << l << " offsets";
    EXPECT_EQ(0, std::memcmp(la.child_ids, lb.child_ids,
                             static_cast<size_t>(la.num_children) *
                                 sizeof(int32_t)))
        << "level " << l << " children";
  }
}

TEST_F(PlantedIndexFixture, CorruptedIndexSectionIsRejectedAsIOError) {
  std::string bytes = ReadBytes(store_path_);
  const int32_t levels =
      EmbeddingStore::Open(store_path_).ValueOrDie()->index().num_levels();
  ASSERT_GE(levels, 1);
  // The container footer (util/io.h) ends with: per-section (u64 length,
  // u32 crc) table, u32 section count, u32 footer crc, magic "HGNC". The
  // index is written last, as one meta section plus one per level, so
  // it spans the payload's final 1 + levels sections.
  const auto load = [&](size_t at, size_t width) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, width);
    return value;
  };
  constexpr size_t kEntryBytes = 8 + 4;
  ASSERT_GT(bytes.size(), 12u);
  const size_t count = load(bytes.size() - 12, 4);
  ASSERT_GT(count, static_cast<size_t>(levels) + 1);
  const size_t table = bytes.size() - 12 - count * kEntryBytes;
  size_t index_bytes = 0;
  for (size_t section = count - 1 - static_cast<size_t>(levels);
       section < count; ++section) {
    index_bytes += load(table + section * kEntryBytes, 8);
  }
  ASSERT_LT(index_bytes, table);
  const size_t target = table - index_bytes / 2;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
  const std::string corrupt_path = TempPath("planted_index_corrupt.hgnnstore");
  WriteBytes(corrupt_path, bytes);
  auto store = EmbeddingStore::Open(corrupt_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

TEST_F(PlantedIndexFixture, TruncatedIndexSectionIsRejectedAsIOError) {
  const std::string bytes = ReadBytes(store_path_);
  ASSERT_GT(bytes.size(), 128u);
  const std::string truncated_path =
      TempPath("planted_index_truncated.hgnnstore");
  WriteBytes(truncated_path, bytes.substr(0, bytes.size() - 96));
  auto store = EmbeddingStore::Open(truncated_path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

// ------------------------------------------------------------- wire --

TEST_F(PlantedIndexFixture, WireBeamOverrideSelectsExactOrBeamedPath) {
  ServeMetrics metrics;
  auto stores =
      std::move(StoreManager::Open(store_path_, &metrics).ValueOrDie());
  auto server =
      std::move(ScoringServer::Start(stores.get(), &metrics, ServerConfig())
                    .ValueOrDie());
  auto client = std::move(
      ScoringClient::Connect("127.0.0.1", server->port()).ValueOrDie());

  const std::shared_ptr<const StoreGeneration> generation = stores->Current();
  for (int32_t user : {11, 87}) {
    const std::vector<Recommendation> exact =
        generation->engine->RecommendTopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> beamed =
        generation->engine->RecommendTopK(user, 5, kDefaultTopKBeam)
            .ValueOrDie();

    // beam 0 -> server default (kDefaultTopKBeam), beam -1 -> exact,
    // explicit beam -> that beam.
    const std::vector<Recommendation> wire_default =
        client.TopK(user, 5).ValueOrDie();
    const std::vector<Recommendation> wire_exact =
        client.TopK(user, 5, -1).ValueOrDie();
    const std::vector<Recommendation> wire_beamed =
        client.TopK(user, 5, kDefaultTopKBeam).ValueOrDie();

    ASSERT_EQ(wire_default.size(), beamed.size());
    ASSERT_EQ(wire_exact.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(wire_default[i], beamed[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(wire_beamed[i], beamed[i]) << "user " << user << " rank " << i;
      EXPECT_EQ(wire_exact[i], exact[i]) << "user " << user << " rank " << i;
    }
  }

  // serve.index.* metrics observed the traffic: four beamed searches,
  // two exact ones.
  obs::MetricsRegistry& registry = metrics.registry();
  EXPECT_EQ(registry.GetCounter("serve.index.searches_total").value(), 6);
  EXPECT_EQ(registry.GetCounter("serve.index.exact_total").value(), 2);
  EXPECT_GT(registry.GetCounter("serve.index.nodes_scored_total").value(), 0);
  EXPECT_GT(registry.GetCounter("serve.index.leaves_scored_total").value(),
            0);
  EXPECT_EQ(registry.GetGauge("serve.index.beam").value(),
            static_cast<double>(kDefaultTopKBeam));
  const std::string json = client.Stats().ValueOrDie();
  EXPECT_EQ(json.rfind("{\"daemon\": {\"start_generation\": 1, ", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"serve.index.searches_total\": 6,\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.index.exact_total\": 2,\n"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"serve.requests.topk\": 6,\n"), std::string::npos)
      << json;
  server->Stop();
}

}  // namespace
}  // namespace hignn
