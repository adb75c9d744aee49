// Tests for the unified telemetry subsystem (src/obs/, DESIGN.md §11):
// metrics-registry semantics under concurrent writers, deterministic
// dumps, golden trace JSON, run-report integrity, and the subsystem's
// core contract — telemetry is observation-only, so training results are
// bitwise identical with collection on, off, and at any thread count.
//
// Also compiled into hignn_threading_tests so `ctest -L tsan` races the
// registry atomics and per-thread trace buffers under TSan.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "serve/serve_metrics.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/string_util.h"

namespace hignn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Restores the global collection switch when a test body exits, including
// on assertion failure, so one test's --obs-off never leaks into the next.
struct EnabledGuard {
  ~EnabledGuard() { obs::SetEnabled(true); }
};

TEST(ObsMetricsTest, CounterGaugeAndSeriesBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("events");
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5);
  // Get* returns the same object for the same name.
  EXPECT_EQ(&registry.GetCounter("events"), &counter);

  registry.GetGauge("ratio").Set(0.75);
  EXPECT_DOUBLE_EQ(registry.GetGauge("ratio").value(), 0.75);

  obs::Series& series = registry.GetSeries("loss");
  series.Append(1.0);
  series.Append(0.5);
  EXPECT_EQ(series.Snapshot(), (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(series.dropped(), 0);
}

TEST(ObsMetricsTest, HistogramBucketBoundariesArePrevBoundInclusive) {
  obs::Histogram histogram({10.0, 20.0});
  histogram.Record(5.0);    // (0, 10]
  histogram.Record(10.0);   // == bound: stays in (0, 10]
  histogram.Record(15.0);   // (10, 20]
  histogram.Record(20.0);   // == bound: stays in (10, 20]
  histogram.Record(25.0);   // overflow
  EXPECT_EQ(histogram.count(), 5);
  EXPECT_EQ(histogram.SnapshotCounts(), (std::vector<int64_t>{2, 2, 1}));
  // Exact extremes and the explicit overflow count ride alongside the
  // bucketized view — the parts bucket flooring loses.
  EXPECT_EQ(histogram.overflow(), 1);
  EXPECT_DOUBLE_EQ(histogram.observed_min(), 5.0);
  EXPECT_DOUBLE_EQ(histogram.observed_max(), 25.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 75.0);
  // Overflow-bucket percentiles floor to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 20.0);
  // The free function over an explicit snapshot agrees with the member.
  EXPECT_DOUBLE_EQ(
      obs::HistogramPercentile(histogram.bounds(),
                               histogram.SnapshotCounts(), 0.5),
      histogram.Percentile(0.5));
}

TEST(ObsMetricsTest, PercentileStaysWithinObservedExtremes) {
  // Four samples in (500, 1000]: interpolating within the bucket would
  // put p99 near 1000, past the largest sample.
  obs::Histogram within(obs::DefaultLatencyBoundsUs());
  for (const double v : {510.0, 540.0, 580.0, 616.0}) within.Record(v);
  EXPECT_GT(obs::HistogramPercentile(within.bounds(),
                                     within.SnapshotCounts(), 0.99),
            616.0);  // the bare snapshot has no extremes to clamp to
  EXPECT_LE(within.Percentile(0.99), 616.0);
  EXPECT_LE(within.Percentile(0.95), 616.0);
  EXPECT_GE(within.Percentile(0.01), 510.0);

  // Every sample overflows: the floor at the last bound lies below them.
  obs::Histogram overflow({10.0, 20.0});
  overflow.Record(30.0);
  overflow.Record(45.0);
  EXPECT_GE(overflow.Percentile(0.5), 30.0);
  EXPECT_LE(overflow.Percentile(1.0), 45.0);
  EXPECT_DOUBLE_EQ(obs::Histogram({10.0}).Percentile(0.5), 0.0);
}

TEST(ObsMetricsTest, SeriesCapDropsAndTallies) {
  obs::Series series;
  const size_t extra = 3;
  for (size_t i = 0; i < obs::Series::kSeriesCap + extra; ++i) {
    series.Append(static_cast<double>(i));
  }
  EXPECT_EQ(series.Snapshot().size(), obs::Series::kSeriesCap);
  EXPECT_EQ(series.dropped(), static_cast<int64_t>(extra));
}

TEST(ObsMetricsTest, DisabledCollectionMakesUpdatesNoOps) {
  EnabledGuard guard;
  obs::MetricsRegistry registry;
  obs::SetEnabled(false);
  registry.GetCounter("c").Add(7);
  registry.GetGauge("g").Set(1.5);
  obs::Histogram& histogram = registry.GetHistogram("h", {1.0, 2.0});
  histogram.Record(1.0);
  registry.GetSeries("s").Append(3.0);
  EXPECT_EQ(registry.GetCounter("c").value(), 0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g").value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_TRUE(registry.GetSeries("s").Snapshot().empty());

  obs::SetEnabled(true);
  registry.GetCounter("c").Add(2);
  EXPECT_EQ(registry.GetCounter("c").value(), 2);
}

TEST(ObsMetricsTest, ResetZeroesInPlaceAndKeepsReferencesValid) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("c");
  obs::Histogram& histogram = registry.GetHistogram("h", {10.0});
  counter.Add(5);
  histogram.Record(3.0);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(histogram.count(), 0);
  // Cached references keep working after Reset — the façade contract.
  counter.Add(2);
  histogram.Record(4.0);
  EXPECT_EQ(registry.GetCounter("c").value(), 2);
  EXPECT_EQ(registry.GetHistogram("h", {}).count(), 1);
}

TEST(ObsMetricsTest, ConcurrentWritersLoseNoUpdates) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("hammer");
  obs::Histogram& histogram =
      registry.GetHistogram("latency", obs::DefaultLatencyBoundsUs());
  obs::Series& series = registry.GetSeries("points");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        histogram.Record(static_cast<double>((t * kPerThread + i) % 3000));
        series.Append(static_cast<double>(i));
        HIGNN_SPAN("obs.test.worker", {{"thread", t}});
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t n : histogram.SnapshotCounts()) bucket_total += n;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  const int64_t kept = static_cast<int64_t>(series.Snapshot().size());
  EXPECT_EQ(kept + series.dropped(), kThreads * kPerThread);
  obs::ResetTrace();  // leave no cross-thread spans behind for goldens
}

TEST(ObsMetricsTest, DumpJsonIsByteStableAndSorted) {
  obs::MetricsRegistry registry;
  // Registered in non-sorted order; dumps must come out sorted.
  registry.GetSeries("d.series").Append(1.0);
  registry.GetSeries("d.series").Append(2.5);
  obs::Histogram& histogram = registry.GetHistogram("c.hist", {10.0, 20.0});
  histogram.Record(5.0);
  histogram.Record(10.0);
  histogram.Record(15.0);
  histogram.Record(25.0);
  registry.GetGauge("b.gauge").Set(0.5);
  registry.GetCounter("a.count").Add(3);

  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"b.gauge\": 0.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"c.hist\": {\"count\": 4, \"p50\": 10.0, \"p95\": 20.0, "
      "\"p99\": 20.0, \"min\": 5, \"max\": 25, \"overflow\": 1, "
      "\"buckets\": {\"bounds\": [10, 20], "
      "\"counts\": [2, 1, 1]}}\n"
      "  },\n"
      "  \"series\": {\n"
      "    \"d.series\": {\"count\": 2, \"dropped\": 0, "
      "\"values\": [1, 2.5]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.DumpJson(), expected);
  EXPECT_EQ(registry.DumpJson(), registry.DumpJson());
}

TEST(ObsMetricsTest, DumpPrometheusIsSortedCumulativeAndSanitized) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.requests.score").Add(3);
  registry.GetGauge("serve.index.beam").Set(32);
  obs::Histogram& histogram =
      registry.GetHistogram("serve.latency_us", {10.0, 20.0});
  histogram.Record(5.0);
  histogram.Record(15.0);
  histogram.Record(25.0);
  // Series are deliberately omitted from the exposition format.
  registry.GetSeries("loss").Append(1.0);

  EXPECT_EQ(registry.DumpPrometheus(),
            "# TYPE hignn_serve_requests_score counter\n"
            "hignn_serve_requests_score 3\n"
            "# TYPE hignn_serve_index_beam gauge\n"
            "hignn_serve_index_beam 32\n"
            "# TYPE hignn_serve_latency_us histogram\n"
            "hignn_serve_latency_us_bucket{le=\"10\"} 1\n"
            "hignn_serve_latency_us_bucket{le=\"20\"} 2\n"
            "hignn_serve_latency_us_bucket{le=\"+Inf\"} 3\n"
            "hignn_serve_latency_us_sum 45\n"
            "hignn_serve_latency_us_count 3\n");
  EXPECT_EQ(registry.DumpPrometheus(), registry.DumpPrometheus());
}

obs::Event TracedEvent(uint64_t request_id, int64_t start_us,
                       int64_t duration_us) {
  obs::Event event;
  event.request_id = request_id;
  event.verb = 1;
  event.stamps[obs::kPhaseAccept] = start_us;
  event.stamps[obs::kPhaseParse] = start_us + 1;
  event.stamps[obs::kPhaseReplyFlushed] = start_us + duration_us;
  return event;
}

TEST(ObsEventLogTest, GoldenJsonlLineAndDurationSemantics) {
  obs::EventLog log(/*capacity=*/4, /*exemplar_capacity=*/2);
  log.set_slow_threshold_us(100);
  obs::Event event;
  event.request_id = 0xABCDEF0123456789ull;
  event.verb = 2;
  event.ok = false;
  event.stamps[obs::kPhaseAccept] = 1000;
  event.stamps[obs::kPhaseParse] = 1010;
  event.stamps[obs::kPhaseIndexDescent] = 1200;
  event.stamps[obs::kPhaseReplyFlushed] = 1250;
  EXPECT_EQ(event.DurationUs(), 250);
  log.Record(event);
  EXPECT_EQ(log.recorded(), 1);
  EXPECT_EQ(log.slow_recorded(), 1);  // 250 >= 100
  EXPECT_EQ(log.DumpJsonl(),
            "{\"seq\": 0, \"request_id\": \"abcdef0123456789\", "
            "\"verb\": 2, \"ok\": false, \"slow\": true, "
            "\"duration_us\": 250, \"accept_us\": 1000, "
            "\"parse_us\": 1010, \"enqueue_us\": -1, "
            "\"batch_close_us\": -1, \"rows_assembled_us\": -1, "
            "\"forward_done_us\": -1, \"index_descent_us\": 1200, "
            "\"reply_flushed_us\": 1250}\n");
  // Determinism: the same history dumps the same bytes.
  EXPECT_EQ(log.DumpJsonl(), log.DumpJsonl());
}

// The span table's pairing, per verb path: each span runs from its first
// present begin stamp to its end stamp, and is absent (-1) when either is
// missing or the stamps are out of order.
TEST(ObsEventLogTest, SpansPairStampsAlongEachVerbPath) {
  std::vector<std::string> names;
  for (const obs::PhaseSpan& span : obs::kPhaseSpans) names.push_back(span.name);
  EXPECT_EQ(names, (std::vector<std::string>{"parse", "queue_wait", "index",
                                             "assemble", "forward", "reply"}));
  const auto spans = [](const obs::Event& event) {
    std::vector<int64_t> us;
    for (const obs::PhaseSpan& span : obs::kPhaseSpans) {
      us.push_back(event.SpanUs(span));
    }
    return us;
  };
  obs::Event score;  // batched score: no index descent
  const int64_t score_stamps[] = {100, 101, 103, 110, 120, 150, -1, 160};
  std::copy(std::begin(score_stamps), std::end(score_stamps), score.stamps);
  EXPECT_EQ(spans(score), (std::vector<int64_t>{1, 7, -1, 10, 30, 10}));

  obs::Event beamed;  // beamed topk: no batch
  const int64_t beamed_stamps[] = {100, 101, -1, -1, 140, 150, 130, 151};
  std::copy(std::begin(beamed_stamps), std::end(beamed_stamps),
            beamed.stamps);
  EXPECT_EQ(spans(beamed), (std::vector<int64_t>{1, -1, 29, 10, 10, 1}));

  obs::Event exact;  // exact topk: assembly starts at the parse
  const int64_t exact_stamps[] = {100, 102, -1, -1, 110, 150, -1, 155};
  std::copy(std::begin(exact_stamps), std::end(exact_stamps), exact.stamps);
  EXPECT_EQ(spans(exact), (std::vector<int64_t>{2, -1, -1, 8, 40, 5}));

  obs::Event health;  // health: the reply starts at the parse
  health.stamps[obs::kPhaseAccept] = 100;
  health.stamps[obs::kPhaseParse] = 104;
  health.stamps[obs::kPhaseReplyFlushed] = 103;  // out of order: absent
  EXPECT_EQ(spans(health), (std::vector<int64_t>{4, -1, -1, -1, -1, -1}));
}

TEST(ObsEventLogTest, RingEvictsFastEventsButExemplarsKeepSlowOnes) {
  obs::EventLog log(/*capacity=*/4, /*exemplar_capacity=*/2);
  log.set_slow_threshold_us(1000);
  // One slow event, then a burst of fast ones that laps the main ring.
  log.Record(TracedEvent(0x51, /*start_us=*/0, /*duration_us=*/5000));
  for (int i = 0; i < 8; ++i) {
    log.Record(TracedEvent(0x100 + i, 10000 + i * 10, /*duration_us=*/5));
  }
  EXPECT_EQ(log.recorded(), 9);
  EXPECT_EQ(log.slow_recorded(), 1);
  const std::string jsonl = log.DumpJsonl();
  // The slow exemplar survived eviction; the earliest fast events did not.
  EXPECT_NE(jsonl.find("\"request_id\": \"0000000000000051\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"slow\": true"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"request_id\": \"0000000000000100\""),
            std::string::npos);
  // 4 ring slots + 1 surviving exemplar = 5 lines.
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5u);
}

TEST(ObsEventLogTest, ExemplarStillInRingIsNotDuplicated) {
  obs::EventLog log(/*capacity=*/4, /*exemplar_capacity=*/2);
  log.set_slow_threshold_us(1000);
  log.Record(TracedEvent(0x51, 0, /*duration_us=*/5000));
  const std::string jsonl = log.DumpJsonl();
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u);  // present in both rings, dumped once
}

TEST(ObsEventLogTest, DisabledThresholdAndCollectionSuppressCapture) {
  EnabledGuard guard;
  obs::EventLog log(/*capacity=*/4, /*exemplar_capacity=*/2);
  log.set_slow_threshold_us(0);  // <= 0 disables exemplar capture
  log.Record(TracedEvent(0x1, 0, /*duration_us=*/999999));
  EXPECT_EQ(log.recorded(), 1);
  EXPECT_EQ(log.slow_recorded(), 0);

  obs::SetEnabled(false);
  log.Record(TracedEvent(0x2, 0, /*duration_us=*/50));
  obs::SetEnabled(true);
  EXPECT_EQ(log.recorded(), 1);  // the disabled record was a no-op

  log.Reset();
  EXPECT_EQ(log.recorded(), 0);
  EXPECT_EQ(log.DumpJsonl(), "");
}

TEST(ObsEventLogTest, ConcurrentRecordersLoseNoEvents) {
  obs::EventLog log(/*capacity=*/128, /*exemplar_capacity=*/16);
  log.set_slow_threshold_us(50);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Every 100th event is slow.
        log.Record(TracedEvent(
            static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i),
            i * 10, i % 100 == 0 ? 500 : 5));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(log.recorded(), kThreads * kPerThread);
  EXPECT_EQ(log.slow_recorded(), kThreads * (kPerThread / 100));
  // The dump stays parseable and bounded after the hammer.
  const std::string jsonl = log.DumpJsonl();
  size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_LE(lines, 128u + 16u);
}

TEST(ObsTraceTest, GoldenTraceJsonWithZeroedTimestamps) {
  // The tid is this thread's buffer registration index — deterministic
  // for a given process history but dependent on which tests ran before,
  // so extract it from a probe span rather than hard-coding it.
  obs::ResetTrace();
  { HIGNN_SPAN("probe"); }
  const std::string probe = obs::TraceJson(/*zero_timestamps=*/true);
  const size_t tid_pos = probe.find("\"tid\": ");
  ASSERT_NE(tid_pos, std::string::npos);
  const std::string tid = probe.substr(
      tid_pos + 7, probe.find(',', tid_pos) - (tid_pos + 7));

  obs::ResetTrace();
  {
    HIGNN_SPAN("outer", {{"level", 2}});
    { HIGNN_SPAN("inner"); }
  }
  EXPECT_EQ(obs::TraceJson(/*zero_timestamps=*/true),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"inner\", \"cat\": \"hignn\", \"ph\": \"X\", "
            "\"ts\": 0, \"dur\": 0, \"pid\": 1, \"tid\": " + tid + ", "
            "\"args\": {}},\n"
            "  {\"name\": \"outer\", \"cat\": \"hignn\", \"ph\": \"X\", "
            "\"ts\": 0, \"dur\": 0, \"pid\": 1, \"tid\": " + tid + ", "
            "\"args\": {\"level\": 2}}\n"
            "], \"displayTimeUnit\": \"ms\", \"dropped_events\": 0}\n");
  obs::ResetTrace();
  EXPECT_EQ(obs::TraceJson(/*zero_timestamps=*/true),
            "{\"traceEvents\": [\n"
            "], \"displayTimeUnit\": \"ms\", \"dropped_events\": 0}\n");
}

TEST(ObsTraceTest, DisabledCollectionRecordsNoSpans) {
  EnabledGuard guard;
  obs::ResetTrace();
  obs::SetEnabled(false);
  { HIGNN_SPAN("invisible"); }
  obs::SetEnabled(true);
  EXPECT_EQ(obs::TraceJson(/*zero_timestamps=*/true),
            "{\"traceEvents\": [\n"
            "], \"displayTimeUnit\": \"ms\", \"dropped_events\": 0}\n");
}

TEST(ObsRunReportTest, RoundTripPreservesFingerprintAndMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("run.test").Add(7);
  const std::string path = TempPath("obs_run_report.json");
  ASSERT_TRUE(
      obs::WriteRunReport(path, 0xDEADBEEFCAFEF00Dull, registry).ok());
  auto loaded = obs::LoadRunReport(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded.value().find("\"fingerprint\": \"deadbeefcafef00d\""),
            std::string::npos);
  EXPECT_NE(loaded.value().find("\"run.test\": 7"), std::string::npos);
  EXPECT_NE(loaded.value().find("\"schema_version\": 1"),
            std::string::npos);
}

TEST(ObsRunReportTest, CorruptionAndTruncationAreRejected) {
  obs::MetricsRegistry registry;
  registry.GetCounter("run.test").Add(7);
  const std::string path = TempPath("obs_run_report_corrupt.json");
  ASSERT_TRUE(obs::WriteRunReport(path, 1, registry).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }

  // Flip one payload byte: the CRC must notice.
  const size_t at = bytes.find("run.test");
  ASSERT_NE(at, std::string::npos);
  std::string flipped = bytes;
  flipped[at] ^= 0x20;
  { std::ofstream(path, std::ios::binary) << flipped; }
  auto corrupt = obs::LoadRunReport(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kIOError);

  // Truncation must be rejected too, not read as a short report.
  { std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() / 2); }
  auto truncated = obs::LoadRunReport(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);
}

TEST(ObsServeFacadeTest, ServeMetricsReportsIntoItsRegistry) {
  obs::MetricsRegistry registry;
  ServeMetrics metrics(&registry);
  metrics.RecordRequest(WireVerb::kScore, 120.0, /*ok=*/true);
  metrics.RecordRequest(WireVerb::kTopK, 300.0, /*ok=*/false);
  metrics.RecordShed();
  metrics.RecordBatch(4);

  // Counter names come from the wire's VerbName table.
  EXPECT_EQ(registry.GetCounter("serve.requests.score").value(), 1);
  EXPECT_EQ(registry.GetCounter("serve.errors.score").value(), 0);
  EXPECT_EQ(registry.GetCounter("serve.requests.topk").value(), 1);
  EXPECT_EQ(registry.GetCounter("serve.errors.topk").value(), 1);
  EXPECT_EQ(registry.GetCounter("serve.shed_total").value(), 1);
  EXPECT_EQ(
      registry.GetHistogram("serve.latency_us", {}).count(), 2);
  EXPECT_EQ(metrics.batches_total(), 1);
  EXPECT_EQ(&metrics.registry(), &registry);
}

// The tentpole invariant: telemetry is observation-only. Training with
// collection on, off, and at different thread counts must produce
// bitwise-identical models — no clock value or metric read may feed
// deterministic state.
TEST(ObsInvariantTest, FitIsBitwiseIdenticalOnOffAndAcrossThreads) {
  EnabledGuard guard;
  auto dataset =
      SyntheticDataset::Generate(SyntheticConfig::Tiny()).ValueOrDie();
  const BipartiteGraph graph = dataset.BuildTrainGraph();
  HignnConfig config;
  config.levels = 2;
  config.sage.dims = {8, 8};
  config.sage.fanouts = {4, 3};
  config.sage.train_steps = 8;
  config.min_clusters = 2;

  auto fit_with = [&](bool obs_on, int32_t threads) {
    obs::SetEnabled(obs_on);
    HignnConfig run = config;
    run.num_threads = threads;
    auto model = Hignn::Fit(graph, dataset.user_features(),
                            dataset.item_features(), run);
    obs::SetEnabled(true);
    return model.ValueOrDie();
  };

  const HignnModel reference = fit_with(/*obs_on=*/true, /*threads=*/1);
  for (const auto& [obs_on, threads] :
       {std::pair<bool, int32_t>{false, 1}, {true, 4}, {false, 4}}) {
    SCOPED_TRACE(StrFormat("obs_on=%d threads=%d", obs_on ? 1 : 0,
                           threads));
    const HignnModel model = fit_with(obs_on, threads);
    ASSERT_EQ(model.num_levels(), reference.num_levels());
    EXPECT_TRUE(AllClose(model.AllHierarchicalLeft(),
                         reference.AllHierarchicalLeft(), 0.0f));
    EXPECT_TRUE(AllClose(model.AllHierarchicalRight(),
                         reference.AllHierarchicalRight(), 0.0f));
    for (int32_t l = 0; l < reference.num_levels(); ++l) {
      EXPECT_EQ(model.levels()[l].train_loss,
                reference.levels()[l].train_loss);
      EXPECT_EQ(model.levels()[l].left_assignment,
                reference.levels()[l].left_assignment);
      EXPECT_EQ(model.levels()[l].right_assignment,
                reference.levels()[l].right_assignment);
    }
  }
  obs::ResetTrace();
}

}  // namespace
}  // namespace hignn
