#include "cluster/kmeans.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cluster/agglomerative.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hignn {
namespace {

// Three well-separated Gaussian blobs in 2-D.
Matrix Blobs(int per_cluster, uint64_t seed, std::vector<int32_t>* truth) {
  Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  Matrix points(static_cast<size_t>(per_cluster) * 3, 2);
  for (int c = 0; c < 3; ++c) {
    for (int k = 0; k < per_cluster; ++k) {
      const size_t row = static_cast<size_t>(c * per_cluster + k);
      points(row, 0) = static_cast<float>(centers[c][0] + rng.Normal(0, 0.5));
      points(row, 1) = static_cast<float>(centers[c][1] + rng.Normal(0, 0.5));
      if (truth) truth->push_back(c);
    }
  }
  return points;
}

// Fraction of point pairs on which two labelings agree (same/different).
double PairAgreement(const std::vector<int32_t>& a,
                     const std::vector<int32_t>& b) {
  int64_t agree = 0;
  int64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      ++total;
      if ((a[i] == a[j]) == (b[i] == b[j])) ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

class KMeansAlgorithmTest
    : public ::testing::TestWithParam<KMeansAlgorithm> {};

TEST_P(KMeansAlgorithmTest, RecoversSeparatedBlobs) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(60, 17, &truth);
  KMeansConfig config;
  config.k = 3;
  config.algorithm = GetParam();
  config.seed = 5;
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double agreement = PairAgreement(result.value().assignment, truth);
  // Single-pass is an online estimator; allow it a little slack.
  const double bar =
      GetParam() == KMeansAlgorithm::kSinglePass ? 0.90 : 0.99;
  EXPECT_GE(agreement, bar);
}

TEST_P(KMeansAlgorithmTest, AssignmentsInRangeAndCentersFinite) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(20, 23, &truth);
  KMeansConfig config;
  config.k = 5;
  config.algorithm = GetParam();
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().assignment.size(), points.rows());
  for (int32_t a : result.value().assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 5);
  }
  EXPECT_EQ(result.value().centers.rows(), 5u);
  for (size_t i = 0; i < result.value().centers.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.value().centers.data()[i]));
  }
  EXPECT_GE(result.value().inertia, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, KMeansAlgorithmTest,
                         ::testing::Values(KMeansAlgorithm::kLloyd,
                                           KMeansAlgorithm::kMiniBatch,
                                           KMeansAlgorithm::kSinglePass),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case KMeansAlgorithm::kLloyd:
                               return "Lloyd";
                             case KMeansAlgorithm::kMiniBatch:
                               return "MiniBatch";
                             case KMeansAlgorithm::kSinglePass:
                               return "SinglePass";
                           }
                           return "Unknown";
                         });

TEST(KMeansTest, KLargerThanNClamps) {
  Matrix points(3, 2, {0, 0, 5, 5, 10, 10});
  KMeansConfig config;
  config.k = 10;
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok());
  // Effective k = 3: every point its own cluster.
  std::set<int32_t> labels(result.value().assignment.begin(),
                           result.value().assignment.end());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_NEAR(result.value().inertia, 0.0, 1e-9);
}

TEST(KMeansTest, RejectsEmptyAndBadK) {
  EXPECT_FALSE(RunKMeans(Matrix(), KMeansConfig{}).ok());
  Matrix points(4, 2);
  KMeansConfig config;
  config.k = 0;
  EXPECT_FALSE(RunKMeans(points, config).ok());
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(30, 29, &truth);
  KMeansConfig config;
  config.k = 3;
  config.seed = 77;
  auto a = RunKMeans(points, config);
  auto b = RunKMeans(points, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignment, b.value().assignment);
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  Matrix points(10, 3);
  points.Fill(1.0f);
  KMeansConfig config;
  config.k = 3;
  auto result = RunKMeans(points, config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().inertia, 0.0, 1e-9);
}

TEST(KMeansTest, LloydInertiaDecreasesWithMoreClusters) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(40, 31, &truth);
  double previous = 1e300;
  for (int32_t k : {1, 2, 3, 6}) {
    KMeansConfig config;
    config.k = k;
    config.seed = 3;
    auto result = RunKMeans(points, config);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().inertia, previous + 1e-6);
    previous = result.value().inertia;
  }
}

// ------------------------------------------------------- Golden digests --
//
// Pins every variant's exact output on fixed inputs. The "wide" rows were
// recorded on the GEMM-filtered Lloyd with per-point seeding skips, the
// rest with the full-scan assignment and the unpruned k-means++ D^2
// update, so they are the oracle for the filter, the drift bounds and the
// seeding skips: all must leave every bit unchanged. A failure prints the
// row to pin, for when an output change is intended.

uint64_t Fnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// "blobs" (K = n/5), "wide" (K = 1200: 64 center groups, so every bound
// path of the drift-bounded Lloyd is live) and "odd" (d = 5) are Gaussian
// mixtures; "dups" repeats 48 distinct rows, so k-means++ runs out of D^2
// mass and Lloyd must reseed.
Matrix GoldenPoints(const std::string& name) {
  if (name == "dups") {
    Rng rng(19);
    Matrix distinct(48, 3);
    distinct.FillNormal(rng);
    Matrix points(240, 3);
    for (size_t i = 0; i < points.rows(); ++i) {
      const float* src = distinct.row(i % distinct.rows());
      std::copy(src, src + 3, points.row(i));
    }
    return points;
  }
  if (name == "wide") {
    Rng rng(23);
    Matrix modes(300, 16);
    modes.FillNormal(rng);
    Matrix points(6000, 16);
    for (size_t i = 0; i < points.rows(); ++i) {
      const float* mode = modes.row(rng.UniformInt(modes.rows()));
      for (size_t c = 0; c < points.cols(); ++c) {
        points(i, c) = 3.0f * mode[c] + static_cast<float>(rng.Normal(0, 1));
      }
    }
    return points;
  }
  const bool blobs = name == "blobs";
  const size_t n = blobs ? 2000 : 333;
  const size_t d = blobs ? 16 : 5;
  Rng rng(blobs ? 7 : 3);
  Matrix modes(12, d);
  modes.FillNormal(rng);
  Matrix points(n, d);
  for (size_t i = 0; i < n; ++i) {
    const float* mode = modes.row(rng.UniformInt(modes.rows()));
    for (size_t c = 0; c < d; ++c) {
      points(i, c) = 4.0f * mode[c] + static_cast<float>(rng.Normal(0, 1));
    }
  }
  return points;
}

struct GoldenCase {
  const char* dataset;
  int32_t k;
  KMeansAlgorithm algorithm;
  bool kmeanspp;
  uint64_t assignment_hash;
  uint64_t inertia_bits;
  uint64_t centers_hash;
  int32_t iterations;
  int32_t reseeds;
};

std::string GoldenRow(const GoldenCase& g) {
  static const char* const kNames[] = {"kLloyd", "kMiniBatch", "kSinglePass"};
  return StrFormat(
      "{\"%s\", %d, KMeansAlgorithm::%s, %s, 0x%016llxULL, 0x%016llxULL, "
      "0x%016llxULL, %d, %d},",
      g.dataset, g.k, kNames[static_cast<int>(g.algorithm)],
      g.kmeanspp ? "true" : "false",
      static_cast<unsigned long long>(g.assignment_hash),
      static_cast<unsigned long long>(g.inertia_bits),
      static_cast<unsigned long long>(g.centers_hash), g.iterations,
      g.reseeds);
}

const GoldenCase kGoldenCases[] = {
    {"blobs", 400, KMeansAlgorithm::kLloyd, true, 0xcd77a9efc1004a64ULL,
     0x40cfdf1017c62674ULL, 0xd293883e3849e7bdULL, 8, 0},
    {"blobs", 400, KMeansAlgorithm::kLloyd, false, 0xf6197df435f0b1faULL,
     0x40d0207f5d1a93e7ULL, 0xee05144e7970e033ULL, 11, 0},
    {"blobs", 400, KMeansAlgorithm::kMiniBatch, true, 0xf926a71eeea1e038ULL,
     0x40d04f91866dd19bULL, 0x131726a4d9e75b2dULL, 100, 0},
    {"blobs", 400, KMeansAlgorithm::kMiniBatch, false, 0xcea8c779c43802fdULL,
     0x40d06251022672eaULL, 0x2dc9069303946581ULL, 100, 0},
    {"blobs", 400, KMeansAlgorithm::kSinglePass, true, 0x29eb2da81ad132fdULL,
     0x40d0ae2df6f64344ULL, 0x7bc4b980b556e2f8ULL, 1, 0},
    {"blobs", 400, KMeansAlgorithm::kSinglePass, false, 0x3e13f90b61a8b219ULL,
     0x40d090f39db393ccULL, 0x9d3108e447eba6fbULL, 1, 0},
    {"odd", 17, KMeansAlgorithm::kLloyd, true, 0xd01617c0e24f3b6bULL,
     0x4096d630a72d8eebULL, 0xfd7aa6b7cb85795cULL, 6, 0},
    {"odd", 17, KMeansAlgorithm::kLloyd, false, 0x99181397212aae1bULL,
     0x40a53ae7b47e8087ULL, 0x2c36ed78e464a167ULL, 5, 0},
    {"odd", 17, KMeansAlgorithm::kMiniBatch, true, 0xec228b26914e114cULL,
     0x4096fe0689752265ULL, 0xc80a37cd842c9fbdULL, 100, 0},
    {"odd", 17, KMeansAlgorithm::kMiniBatch, false, 0x67fc775fea3f6ee8ULL,
     0x409a903de24cad55ULL, 0x769cedbe3362ced1ULL, 100, 0},
    {"odd", 17, KMeansAlgorithm::kSinglePass, true, 0x5172932147e47107ULL,
     0x4097409fe3634f96ULL, 0xd8e1e45f2e2ef34aULL, 1, 0},
    {"odd", 17, KMeansAlgorithm::kSinglePass, false, 0xbe7c071f7c0700c6ULL,
     0x40a5934f8ff51d74ULL, 0x2780934f8bf53402ULL, 1, 0},
    {"dups", 60, KMeansAlgorithm::kLloyd, true, 0xde4c17d6497c7638ULL,
     0x3d597f8000000000ULL, 0x274a7b85d82c9b9cULL, 25, 312},
    {"dups", 60, KMeansAlgorithm::kLloyd, false, 0x3a53ca86b7874a25ULL,
     0x3d597f8000000000ULL, 0xab64cb1d81e1ac9cULL, 25, 338},
    {"dups", 60, KMeansAlgorithm::kMiniBatch, true, 0x06fcf443ed7901b5ULL,
     0x0000000000000000ULL, 0xb06a5f07020800bbULL, 100, 12},
    {"dups", 60, KMeansAlgorithm::kMiniBatch, false, 0x934fc638efc94bebULL,
     0x400778ebb54c8357ULL, 0x92422508813c8a9bULL, 100, 16},
    {"dups", 60, KMeansAlgorithm::kSinglePass, true, 0x06fcf443ed7901b5ULL,
     0x0000000000000000ULL, 0xb06a5f07020800bbULL, 1, 12},
    {"dups", 60, KMeansAlgorithm::kSinglePass, false, 0x064dbb4661f5d2edULL,
     0x401a86fe9e62478fULL, 0x0491b104de2c3885ULL, 1, 17},
    {"wide", 1200, KMeansAlgorithm::kLloyd, true, 0xa78dcc481d1fb5c5ULL,
     0x40efaa7754e49e3cULL, 0xb4083ebae0b7627aULL, 6, 0},
    {"wide", 1200, KMeansAlgorithm::kLloyd, false, 0x21c558c348722c5bULL,
     0x40efe6f82d6003efULL, 0xa84da1deda31eedeULL, 7, 3},
};

TEST(KMeansGoldenTest, OutputsMatchPinnedDigests) {
  for (const GoldenCase& pinned : kGoldenCases) {
    KMeansConfig config;
    config.k = pinned.k;
    config.algorithm = pinned.algorithm;
    config.kmeanspp_init = pinned.kmeanspp;
    config.seed = 2024;
    auto result = RunKMeans(GoldenPoints(pinned.dataset), config);
    ASSERT_TRUE(result.ok());
    const KMeansResult& r = result.value();
    GoldenCase got = pinned;
    got.assignment_hash =
        Fnv1a(r.assignment.data(), r.assignment.size() * sizeof(int32_t));
    std::memcpy(&got.inertia_bits, &r.inertia, sizeof(got.inertia_bits));
    got.centers_hash = Fnv1a(r.centers.data(), r.centers.size() * sizeof(float));
    got.iterations = r.iterations;
    got.reseeds = r.reseeds;
    EXPECT_EQ(GoldenRow(got), GoldenRow(pinned));
  }
}

// ------------------------------------------------------------- CH index --

TEST(CalinskiHarabaszTest, PrefersTrueK) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(50, 37, &truth);
  double best_ch = -1.0;
  int32_t best_k = 0;
  for (int32_t k : {2, 3, 5, 8}) {
    KMeansConfig config;
    config.k = k;
    config.seed = 11;
    auto result = RunKMeans(points, config);
    ASSERT_TRUE(result.ok());
    const double ch =
        CalinskiHarabaszIndex(points, result.value().assignment, k);
    if (ch > best_ch) {
      best_ch = ch;
      best_k = k;
    }
  }
  EXPECT_EQ(best_k, 3);
}

TEST(CalinskiHarabaszTest, DegenerateCasesReturnZero) {
  Matrix points(5, 2);
  std::vector<int32_t> assignment(5, 0);
  EXPECT_EQ(CalinskiHarabaszIndex(points, assignment, 1), 0.0);   // k < 2
  EXPECT_EQ(CalinskiHarabaszIndex(points, assignment, 5), 0.0);   // k >= n
  EXPECT_EQ(CalinskiHarabaszIndex(points, assignment, 3), 0.0);   // 1 cluster
}

TEST(CalinskiHarabaszTest, SelectKDriver) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(50, 41, &truth);
  KMeansConfig base;
  base.seed = 13;
  int32_t chosen = 0;
  auto result = SelectKByCalinskiHarabasz(points, {2, 3, 5, 9}, base, &chosen);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(chosen, 3);
  EXPECT_EQ(result.value().centers.rows(), 3u);
}

TEST(CalinskiHarabaszTest, SelectKRejectsEmptyCandidates) {
  Matrix points(4, 2);
  KMeansConfig base;
  int32_t chosen = 0;
  EXPECT_FALSE(SelectKByCalinskiHarabasz(points, {}, base, &chosen).ok());
}

// -------------------------------------------------------- Agglomerative --

TEST(AgglomerativeTest, RecoversBlobsAtCutThree) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(30, 43, &truth);
  auto fit = AgglomerativeClustering::Fit(points);
  ASSERT_TRUE(fit.ok());
  auto labels = fit.value().Cut(3);
  ASSERT_TRUE(labels.ok());
  EXPECT_GE(PairAgreement(labels.value(), truth), 0.99);
}

TEST(AgglomerativeTest, CutsNestProperly) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(15, 47, &truth);
  auto fit = AgglomerativeClustering::Fit(points);
  ASSERT_TRUE(fit.ok());
  auto fine = fit.value().Cut(9).ValueOrDie();
  auto coarse = fit.value().Cut(3).ValueOrDie();
  // Nesting: points in the same fine cluster share a coarse cluster.
  for (size_t i = 0; i < fine.size(); ++i) {
    for (size_t j = i + 1; j < fine.size(); ++j) {
      if (fine[i] == fine[j]) {
        EXPECT_EQ(coarse[i], coarse[j]);
      }
    }
  }
}

TEST(AgglomerativeTest, CutBoundaries) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(5, 53, &truth);
  auto fit = AgglomerativeClustering::Fit(points);
  ASSERT_TRUE(fit.ok());
  // k = n: every point its own cluster.
  auto singletons = fit.value().Cut(15).ValueOrDie();
  std::set<int32_t> unique(singletons.begin(), singletons.end());
  EXPECT_EQ(unique.size(), 15u);
  // k = 1: one cluster.
  auto all = fit.value().Cut(1).ValueOrDie();
  for (int32_t l : all) EXPECT_EQ(l, 0);
  // Out of range.
  EXPECT_FALSE(fit.value().Cut(0).ok());
  EXPECT_FALSE(fit.value().Cut(16).ok());
}

TEST(AgglomerativeTest, MergeDistancesMonotoneForWard) {
  std::vector<int32_t> truth;
  Matrix points = Blobs(12, 59, &truth);
  auto fit = AgglomerativeClustering::Fit(points);
  ASSERT_TRUE(fit.ok());
  // NN-chain can report merges slightly out of order, but for separated
  // blobs the final (cross-blob) merges must dominate the early ones.
  const auto& merges = fit.value().merges();
  ASSERT_EQ(merges.size(), points.rows() - 1);
  const double early = merges.front().distance;
  const double late = merges.back().distance;
  EXPECT_GT(late, early * 10);
}

TEST(AgglomerativeTest, SinglePoint) {
  Matrix points(1, 2, {3, 4});
  auto fit = AgglomerativeClustering::Fit(points);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit.value().merges().empty());
  EXPECT_EQ(fit.value().Cut(1).ValueOrDie(), std::vector<int32_t>{0});
}

}  // namespace
}  // namespace hignn
