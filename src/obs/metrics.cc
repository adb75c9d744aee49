#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/io.h"
#include "util/logging.h"
#include "util/ordered.h"
#include "util/string_util.h"

namespace hignn {
namespace obs {

namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  HIGNN_CHECK(!bounds_.empty());
  HIGNN_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t b = 0; b <= bounds_.size(); ++b) counts_[b].store(0);
  // Infinity sentinels make the very first AtomicMin/AtomicMax in Record
  // win unconditionally — no first-sample special case to race on.
  min_.store(std::numeric_limits<double>::infinity());
  max_.store(-std::numeric_limits<double>::infinity());
}

namespace {

// C++17 has no fetch_add/fetch_min for atomic<double>; a relaxed CAS loop
// keeps Record() lock-free without giving up exactness.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(double value) {
  if (!Enabled()) return;
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  // upper_bound puts value == bound into the bucket it bounds, matching
  // the (prev, bound] contract via the strict less-than comparison.
  const size_t index =
      bucket > 0 && value == bounds_[bucket - 1] ? bucket - 1 : bucket;
  counts_[std::min(index, bounds_.size())].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
  AtomicAdd(sum_, value);
}

std::vector<int64_t> Histogram::SnapshotCounts() const {
  std::vector<int64_t> counts(bounds_.size() + 1);
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
  }
  return counts;
}

double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<int64_t>& counts, double p) {
  int64_t total = 0;
  for (int64_t n : counts) total += n;
  if (total == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double target = p * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const int64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target) {
      if (b == counts.size() - 1) return bounds.back();  // overflow floor
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const double within = (target - static_cast<double>(cumulative)) /
                            static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative = next;
  }
  return bounds.back();
}

double Histogram::Percentile(double p) const {
  const double estimate = HistogramPercentile(bounds_, SnapshotCounts(), p);
  // Interpolation inside a bucket, and the overflow floor, can land
  // outside what was recorded. A Record racing this read may have counted
  // its sample before updating the extremes; clamp only to a consistent
  // pair.
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  if (!(lo <= hi)) return estimate;
  return std::min(hi, std::max(lo, estimate));
}

void Histogram::Reset() {
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::string Histogram::BucketsJson() const {
  const std::vector<int64_t> counts = SnapshotCounts();
  std::string json = "{\"bounds\": [";
  for (size_t b = 0; b < bounds_.size(); ++b) {
    json += StrFormat("%s%g", b ? ", " : "", bounds_[b]);
  }
  json += "], \"counts\": [";
  for (size_t b = 0; b < counts.size(); ++b) {
    json += StrFormat("%s%lld", b ? ", " : "",
                      static_cast<long long>(counts[b]));
  }
  json += "]}";
  return json;
}

void Series::Append(double value) {
  if (!Enabled()) return;
  MutexLock lock(mu_);
  if (values_.size() >= kSeriesCap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  values_.push_back(value);
}

std::vector<double> Series::Snapshot() const {
  MutexLock lock(mu_);
  return values_;
}

void Series::Reset() {
  MutexLock lock(mu_);
  values_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBoundsUs() {
  return {50,    100,   200,   500,    1000,   2000,   5000,
          10000, 20000, 50000, 100000, 200000, 500000, 1000000};
}

std::vector<double> DefaultBatchRowBounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

Series& MetricsRegistry::GetSeries(const std::string& name) {
  MutexLock lock(mu_);
  std::unique_ptr<Series>& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

std::string MetricsRegistry::DumpJson() const {
  // Snapshot every section into plain-value maps first: SortedEntries
  // copies mapped_type, so the unique_ptr maps cannot be sorted directly,
  // and the copy bounds how long the registry mutex is held.
  std::unordered_map<std::string, int64_t> counters;
  std::unordered_map<std::string, double> gauges;
  std::unordered_map<std::string, std::string> histograms;
  std::unordered_map<std::string, std::string> series;
  {
    MutexLock lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges[name] = gauge->value();
    }
    for (const auto& [name, histogram] : histograms_) {
      histograms[name] = StrFormat(
          "{\"count\": %lld, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, "
          "\"min\": %.6g, \"max\": %.6g, \"overflow\": %lld, "
          "\"buckets\": %s}",
          static_cast<long long>(histogram->count()),
          histogram->Percentile(0.50), histogram->Percentile(0.95),
          histogram->Percentile(0.99), histogram->observed_min(),
          histogram->observed_max(),
          static_cast<long long>(histogram->overflow()),
          histogram->BucketsJson().c_str());
    }
    for (const auto& [name, s] : series_) {
      const std::vector<double> values = s->Snapshot();
      std::string json = StrFormat(
          "{\"count\": %lld, \"dropped\": %lld, \"values\": [",
          static_cast<long long>(values.size()),
          static_cast<long long>(s->dropped()));
      for (size_t i = 0; i < values.size(); ++i) {
        json += StrFormat("%s%.6g", i ? ", " : "", values[i]);
      }
      json += "]}";
      series[name] = std::move(json);
    }
  }

  std::string json = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : SortedEntries(counters)) {
    json += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                      name.c_str(), static_cast<long long>(value));
    first = false;
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : SortedEntries(gauges)) {
    json += StrFormat("%s\n    \"%s\": %.6g", first ? "" : ",",
                      name.c_str(), value);
    first = false;
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"histograms\": {";
  first = true;
  for (const auto& [name, value] : SortedEntries(histograms)) {
    json += StrFormat("%s\n    \"%s\": %s", first ? "" : ",", name.c_str(),
                      value.c_str());
    first = false;
  }
  json += first ? "},\n" : "\n  },\n";
  json += "  \"series\": {";
  first = true;
  for (const auto& [name, value] : SortedEntries(series)) {
    json += StrFormat("%s\n    \"%s\": %s", first ? "" : ",", name.c_str(),
                      value.c_str());
    first = false;
  }
  json += first ? "}\n" : "\n  }\n";
  json += "}\n";
  return json;
}

namespace {

// Prometheus metric names admit [a-zA-Z0-9_:]; our dotted registry names
// map through `hignn_` + dots-to-underscores (serve.latency_us becomes
// hignn_serve_latency_us).
std::string PrometheusName(const std::string& name) {
  std::string out = "hignn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::DumpPrometheus() const {
  struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<int64_t> counts;  // overflow last
    double sum = 0.0;
    int64_t total = 0;
  };
  std::unordered_map<std::string, int64_t> counters;
  std::unordered_map<std::string, double> gauges;
  std::unordered_map<std::string, HistogramSnapshot> histograms;
  {
    MutexLock lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges[name] = gauge->value();
    }
    for (const auto& [name, histogram] : histograms_) {
      HistogramSnapshot snapshot;
      snapshot.bounds = histogram->bounds();
      snapshot.counts = histogram->SnapshotCounts();
      snapshot.sum = histogram->sum();
      snapshot.total = histogram->count();
      histograms[name] = std::move(snapshot);
    }
    // Series have no exposition-format equivalent and are deliberately
    // omitted: a scraper wants rates and distributions, not raw points.
  }

  std::string text;
  for (const auto& [name, value] : SortedEntries(counters)) {
    const std::string prom = PrometheusName(name);
    text += StrFormat("# TYPE %s counter\n%s %lld\n", prom.c_str(),
                      prom.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, value] : SortedEntries(gauges)) {
    const std::string prom = PrometheusName(name);
    text += StrFormat("# TYPE %s gauge\n%s %.6g\n", prom.c_str(),
                      prom.c_str(), value);
  }
  for (const auto& [name, snapshot] : SortedEntries(histograms)) {
    const std::string prom = PrometheusName(name);
    text += StrFormat("# TYPE %s histogram\n", prom.c_str());
    int64_t cumulative = 0;
    for (size_t b = 0; b < snapshot.bounds.size(); ++b) {
      cumulative += snapshot.counts[b];
      text += StrFormat("%s_bucket{le=\"%g\"} %lld\n", prom.c_str(),
                        snapshot.bounds[b],
                        static_cast<long long>(cumulative));
    }
    text += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", prom.c_str(),
                      static_cast<long long>(snapshot.total));
    text += StrFormat("%s_sum %.6g\n%s_count %lld\n", prom.c_str(),
                      snapshot.sum, prom.c_str(),
                      static_cast<long long>(snapshot.total));
  }
  return text;
}

Status MetricsRegistry::DumpJsonToFile(const std::string& path) const {
  return AtomicWriteTextFile(path, DumpJson());
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, s] : series_) s->Reset();
}

void CounterAdd(const std::string& name, int64_t delta) {
  if (!Enabled()) return;
  MetricsRegistry::Global().GetCounter(name).Add(delta);
}

void GaugeSet(const std::string& name, double value) {
  if (!Enabled()) return;
  MetricsRegistry::Global().GetGauge(name).Set(value);
}

void SeriesAppend(const std::string& name, double value) {
  if (!Enabled()) return;
  MetricsRegistry::Global().GetSeries(name).Append(value);
}

void LatencyRecordUs(const std::string& name, double latency_us) {
  if (!Enabled()) return;
  MetricsRegistry::Global()
      .GetHistogram(name, DefaultLatencyBoundsUs())
      .Record(latency_us);
}

}  // namespace obs
}  // namespace hignn
