#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/io.h"
#include "util/ordered.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hignn {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::FailedPrecondition("").code(),
      Status::Internal("").code(),        Status::Unimplemented("").code(),
      Status::IOError("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  HIGNN_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 21);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleIt(4).ValueOrDie(), 8);
  EXPECT_FALSE(DoubleIt(-4).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 450);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 30000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 30000.0, 0.3, 0.02);
}

TEST(RngTest, PoissonMean) {
  Rng rng(19);
  double total = 0.0;
  for (int i = 0; i < 20000; ++i) total += rng.Poisson(2.5);
  EXPECT_NEAR(total / 20000.0, 2.5, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(AliasSamplerTest, MatchesDistribution) {
  Rng rng(31);
  AliasSampler sampler({1.0, 2.0, 4.0, 0.0, 1.0});
  std::vector<int> counts(5, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[3], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 8, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 8, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 4.0 / 8, 0.012);
}

TEST(AliasSamplerTest, SingleBucket) {
  Rng rng(37);
  AliasSampler sampler({5.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  hello\t world \n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, TrimStripsOuterWhitespace) {
  EXPECT_EQ(Trim("  MiXeD \t"), "MiXeD");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hignn_test", "hignn"));
  EXPECT_FALSE(StartsWith("hi", "hignn"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, ThousandsSeparator) {
  EXPECT_EQ(WithThousandsSep(0), "0");
  EXPECT_EQ(WithThousandsSep(999), "999");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(-1234), "-1,234");
}

// ---------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, InlineModeWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  size_t covered = 0;
  pool.ParallelFor(0, 10, [&](size_t lo, size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 10u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ManySubmissions) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.ParallelForChunks(0, 4, 4, [&](size_t, size_t, size_t) {
      ++counter;
    });
  }
  EXPECT_EQ(counter.load(), 2000);
}

TEST(ThreadPoolTest, EmptyRangeAfterRealWorkStillNoOp) {
  // begin == end must not leave the pool in a state that deadlocks the
  // next call.
  ThreadPool pool(4);
  std::atomic<int> covered{0};
  pool.ParallelFor(0, 64, [&](size_t lo, size_t hi) {
    covered += static_cast<int>(hi - lo);
  });
  bool called = false;
  pool.ParallelFor(7, 7, [&](size_t, size_t) { called = true; });
  pool.ParallelFor(0, 64, [&](size_t lo, size_t hi) {
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_FALSE(called);
  EXPECT_EQ(covered.load(), 128);
}

TEST(ThreadPoolTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inner_total{0};
  std::atomic<int> inner_left_its_worker{0};
  pool.ParallelFor(0, 8, [&](size_t lo, size_t hi) {
    const std::thread::id outer = std::this_thread::get_id();
    for (size_t o = lo; o < hi; ++o) {
      pool.ParallelFor(0, 10, [&](size_t inner_lo, size_t inner_hi) {
        inner_total += static_cast<int>(inner_hi - inner_lo);
        // Called on a worker, the nested loop runs inline on that worker
        // instead of waiting for workers busy with the outer loop.
        if (outer != caller && std::this_thread::get_id() != outer) {
          inner_left_its_worker += 1;
        }
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_EQ(inner_left_its_worker.load(), 0);
}

// A chunk that throws on a worker does not kill it or deadlock the call
// waiting for it; the pool stays usable and a clean call does not rethrow.
TEST(ThreadPoolTest, ExceptionInTaskDoesNotDeadlockWait) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForChunks(0, 16, 16,
                                      [](size_t c, size_t, size_t) {
                                        if (c % 2 == 1) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  std::atomic<int> counter{0};
  pool.ParallelForChunks(0, 16, 16,
                         [&](size_t, size_t, size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, ExceptionInParallelForBodyPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [&](size_t lo, size_t) {
                                  if (lo == 0) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForChunksLayoutIndependentOfThreads) {
  // The chunk layout must be a pure function of (range, num_chunks).
  auto record = [](ThreadPool& pool) {
    std::vector<std::array<size_t, 3>> chunks(8, {0, 0, 0});
    pool.ParallelForChunks(3, 103, 8,
                           [&](size_t c, size_t lo, size_t hi) {
                             chunks[c] = {c, lo, hi};
                           });
    return chunks;
  };
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_EQ(record(one), record(four));
}

TEST(ThreadPoolTest, ParallelForChunksCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelForChunks(0, hits.size(), 16,
                         [&](size_t, size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) hits[i] += 1;
                         });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---------------------------------------------------------------- Crc32 --

// Byte at a time, bit by bit, with no table: the reflected CRC-32 the
// sliced implementation must reproduce.
uint32_t Crc32BytewiseOracle(uint32_t state, const unsigned char* bytes,
                             size_t len) {
  for (size_t i = 0; i < len; ++i) {
    state ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SlicedEqualsBytewiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = RandomBytes(1100 + 8, 41);
  int mismatches = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const unsigned char* data = bytes.data() + offset;
      const uint32_t want = Crc32BytewiseOracle(kCrc32Init, data, len);
      if (Crc32Extend(kCrc32Init, data, len) != want && ++mismatches <= 3) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Crc32Test, SplitStreamEqualsOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(1000, 43);
  const uint32_t one_shot = Crc32(bytes.data(), bytes.size());
  for (size_t first = 0; first <= bytes.size(); first += 7) {
    for (const size_t second : {size_t{0}, size_t{1}, size_t{9}, size_t{64}}) {
      const size_t mid = std::min(bytes.size(), first + second);
      uint32_t state = Crc32Extend(kCrc32Init, bytes.data(), first);
      state = Crc32Extend(state, bytes.data() + first, mid - first);
      state = Crc32Extend(state, bytes.data() + mid, bytes.size() - mid);
      EXPECT_EQ(Crc32Finish(state), one_shot) << first << " + " << second;
    }
  }
}

// ----------------------------------------------------------- Atomic IO --

// This file is compiled into two test binaries that ctest runs in
// parallel, so each process writes its own file.
std::string ProcessTempPath(const std::string& name) {
  return StrFormat("%s/%d_%s", ::testing::TempDir().c_str(),
                   static_cast<int>(::getpid()), name.c_str());
}

TEST(AtomicWriteTextFileTest, WritesExactContents) {
  const std::string path = ProcessTempPath("atomic_out.txt");
  EXPECT_TRUE(AtomicWriteTextFile(path, "alpha\nbeta\n").ok());
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "alpha\nbeta\n");
}

TEST(AtomicWriteTextFileTest, ReplacesExistingFileWholesale) {
  const std::string path = ProcessTempPath("atomic_replace.txt");
  ASSERT_TRUE(AtomicWriteTextFile(path, "a much longer first version").ok());
  ASSERT_TRUE(AtomicWriteTextFile(path, "v2").ok());
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "v2");
}

TEST(AtomicWriteTextFileTest, ReportsUnwritableDestination) {
  EXPECT_FALSE(
      AtomicWriteTextFile("/nonexistent-dir/out.txt", "payload").ok());
}

// ------------------------------------------------------------- Ordered --

TEST(OrderedTest, SortedEntriesSortsByKey) {
  std::unordered_map<int32_t, double> map = {{7, 0.5}, {1, 2.0}, {4, -1.0}};
  const auto entries = SortedEntries(map);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<int32_t, double>{1, 2.0}));
  EXPECT_EQ(entries[1], (std::pair<int32_t, double>{4, -1.0}));
  EXPECT_EQ(entries[2], (std::pair<int32_t, double>{7, 0.5}));
}

TEST(OrderedTest, SortedKeysSortsSetElements) {
  std::unordered_set<int32_t> set = {9, -3, 5};
  EXPECT_EQ(SortedKeys(set), (std::vector<int32_t>{-3, 5, 9}));
}

TEST(OrderedTest, MaxValueEntryBreaksTiesTowardSmallestKey) {
  std::unordered_map<int32_t, int32_t> votes = {
      {10, 3}, {2, 5}, {8, 5}, {1, 4}};
  const auto best = MaxValueEntry(votes);
  EXPECT_EQ(best.first, 2);
  EXPECT_EQ(best.second, 5);
}

TEST(OrderedTest, MaxValueEntryReturnsFallbackWhenEmpty) {
  const std::unordered_map<int32_t, float> empty;
  const auto best = MaxValueEntry(empty, {-1, 0.0f});
  EXPECT_EQ(best.first, -1);
  EXPECT_EQ(best.second, 0.0f);
}

// --------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.Millis(), 15.0);
  timer.Restart();
  EXPECT_LT(timer.Millis(), 15.0);
}

}  // namespace
}  // namespace hignn
