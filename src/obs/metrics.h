#ifndef HIGNN_OBS_METRICS_H_
#define HIGNN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {
namespace obs {

/// \brief Unified telemetry: a process-wide registry of named counters,
/// gauges, fixed-bucket histograms and bounded series, shared by training,
/// the serving stack and the benches (DESIGN.md §11).
///
/// Everything here is observation-only by contract: no value read from the
/// registry (or from any clock) may feed model state, artifact bytes or
/// scores. tests/obs_test.cc enforces the consequence — embeddings,
/// checkpoints and scores are bitwise identical with telemetry on, off,
/// and at any thread count. Updates are lock-cheap (one relaxed atomic RMW
/// per event) so instrumentation stays well under the 2% overhead budget
/// measured by bench/obs_overhead.cc.

/// \brief Global collection switch (--obs-off). When false every
/// Counter::Add / Gauge::Set / Histogram::Record / Series::Append is a
/// no-op; metric objects, clocks and dumps keep working so readers never
/// need a special case.
bool Enabled();
void SetEnabled(bool enabled);

/// \brief Monotonically increasing event counter.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (Enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins scalar (ratios, sizes, rates).
class Gauge {
 public:
  void Set(double value) {
    if (Enabled()) value_.store(value, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram: counts per half-open bucket
/// (prev_bound, bound], plus one overflow bucket past the last bound.
/// Fixed bounds keep Record() allocation-free and make percentile
/// estimates deterministic functions of the counts — no reservoir
/// sampling, no randomness, no unordered iteration. This is the one
/// histogram/percentile implementation in the tree: ServeMetrics records
/// into it, and the serving verbs, run reports and benches read it.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);
  int64_t count() const { return total_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  /// \brief Samples past the last bucket edge. Percentile() floors these
  /// to the last finite bound (or to observed_min() when it is larger),
  /// so the overflow tally (with min()/max()) is how a reader tells a
  /// saturated estimate from a real one.
  int64_t overflow() const {
    return counts_[bounds_.size()].load(std::memory_order_relaxed);
  }

  /// \brief Exact observed extremes and running sum — not bucketed, so
  /// they stay honest past the last edge. Zero when count() == 0.
  double observed_min() const {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  double observed_max() const {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// \brief Point-in-time copy of the bucket counts (overflow last).
  std::vector<int64_t> SnapshotCounts() const;

  /// \brief Percentile estimate for `p` in [0, 1]: locates the bucket
  /// holding the p-th sample and interpolates linearly between its
  /// bounds. Values in the overflow bucket report the last finite bound
  /// (a floor, which is the honest direction for tail latency). The
  /// estimate is then clamped to [observed_min(), observed_max()], so a
  /// dump never reports a percentile outside its own extremes.
  double Percentile(double p) const;

  /// \brief `{"bounds": [...], "counts": [...]}` (overflow count last).
  std::string BucketsJson() const;

  /// \brief Zeroes every bucket in place; references stay valid.
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> total_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only while total_ > 0
  std::atomic<double> max_{0.0};
};

/// \brief Percentile over an explicit (bounds, counts) snapshot — the
/// shared math behind Histogram::Percentile, exposed so dumps and tests
/// can recompute from serialized buckets. A bare snapshot carries no
/// extremes, so this estimate is not clamped to them.
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<int64_t>& counts, double p);

/// \brief Bounded append-only sequence of scalars (per-step loss, lr after
/// rollbacks). Past `kSeriesCap` points further appends are dropped and
/// tallied in `dropped()` — the report stays bounded, never silently
/// truncated.
class Series {
 public:
  static constexpr size_t kSeriesCap = 16384;

  void Append(double value);
  std::vector<double> Snapshot() const;
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  mutable Mutex mu_;
  std::vector<double> values_ HIGNN_GUARDED_BY(mu_);
  std::atomic<int64_t> dropped_{0};
};

/// \brief Request-latency buckets in microseconds: sub-millisecond
/// resolution at the fast end (an in-process forward is tens of µs),
/// decade coverage up to one second for loaded TCP round trips.
std::vector<double> DefaultLatencyBoundsUs();

/// \brief Batch-size buckets: powers of two up to the plausible max_batch.
std::vector<double> DefaultBatchRowBounds();

/// \brief Named metric registry. Get* registers on first use and returns
/// a reference that stays valid (and at a stable address) for the
/// registry's lifetime — Reset() zeroes values but never invalidates
/// references, so hot paths may cache pointers. Lookup takes one mutex;
/// the returned objects update with lock-free atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief The process-wide instance every pipeline layer reports into.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// \brief `bounds` applies on first registration; later calls for the
  /// same name return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds);
  Series& GetSeries(const std::string& name);

  /// \brief Deterministic JSON snapshot: sections `counters`, `gauges`,
  /// `histograms`, `series`, each with names in sorted order (via
  /// util/ordered.h — two dumps of the same state are byte-identical).
  std::string DumpJson() const;

  /// \brief Prometheus text exposition (version 0.0.4): every metric name
  /// prefixed `hignn_` with dots mapped to underscores, `# TYPE` comments,
  /// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
  /// `_count`. Series are omitted (no exposition equivalent). Names come
  /// out sorted, so two dumps of the same state are byte-identical.
  std::string DumpPrometheus() const;

  /// \brief Atomically writes DumpJson() to `path`.
  Status DumpJsonToFile(const std::string& path) const;

  /// \brief Zeroes every value in place. References stay valid.
  void Reset();

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_
      HIGNN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_
      HIGNN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_
      HIGNN_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<Series>> series_
      HIGNN_GUARDED_BY(mu_);
};

/// \brief One-line helpers against the global registry for call sites
/// that do not care to cache the metric pointer.
void CounterAdd(const std::string& name, int64_t delta = 1);
void GaugeSet(const std::string& name, double value);
void SeriesAppend(const std::string& name, double value);
void LatencyRecordUs(const std::string& name, double latency_us);

}  // namespace obs
}  // namespace hignn

#endif  // HIGNN_OBS_METRICS_H_
