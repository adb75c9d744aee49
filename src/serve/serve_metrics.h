#ifndef HIGNN_SERVE_SERVE_METRICS_H_
#define HIGNN_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace hignn {

/// \brief Request verbs the scoring server exposes; also the index into
/// the per-verb counter arrays.
enum class ServeVerbStat : int32_t {
  kScore = 0,
  kTopK = 1,
  kHealth = 2,
  kStats = 3,
  kReload = 4,
  kMetrics = 5,
  kTraceDump = 6,
};
inline constexpr int32_t kNumServeVerbs = 7;
const char* ServeVerbStatName(ServeVerbStat verb);

/// \brief Serve-side observability: request/error counters per verb,
/// a fixed-bucket request-latency histogram with p50/p95/p99, shed
/// (overload fast-fail) counts, the micro-batcher's batch-size
/// distribution, the hot-reload lifecycle (store generation gauge,
/// reload / reload-failed counters), and the cluster-tree retrieval
/// index (`serve.index.*`: searches, exact fallbacks, nodes/leaves
/// scored, last beam).
///
/// Since PR 5 this is a thin façade over obs::MetricsRegistry — the
/// counters live in a registry under `serve.*` names and the histogram /
/// percentile math is the shared obs::Histogram implementation, so
/// `hignn_serve stats`, `--metrics-out` dumps and offline run reports
/// all agree. The default constructor owns a private registry (test
/// isolation); pass &obs::MetricsRegistry::Global() to share the
/// process-wide one. ToJson() keeps the pre-refactor wire format
/// byte-for-byte. All methods are thread-safe (lock-free atomics).
class ServeMetrics {
 public:
  /// \brief Façade over a private registry of its own.
  ServeMetrics();

  /// \brief Façade over `registry` (not owned; must outlive this).
  explicit ServeMetrics(obs::MetricsRegistry* registry);

  /// \brief One finished request: verb, wall latency, success flag.
  void RecordRequest(ServeVerbStat verb, double latency_us, bool ok);

  /// \brief Per-phase latency attribution from a completed request's
  /// event (DESIGN.md §17): each obs::kPhaseSpans span lands in its
  /// `serve.phase.<name>_us` histogram. A span is recorded only when its
  /// boundary stamps are present, so verbs that skip a phase (health,
  /// exact-scan topk) never pollute the distribution with zeros.
  void RecordPhases(const obs::Event& event);

  /// \brief One request rejected by overload shedding (fast-fail).
  void RecordShed();

  /// \brief One engine forward issued by the batcher with `rows` rows.
  void RecordBatch(int64_t rows);

  /// \brief One store reload attempt (StoreManager::Reload); failed
  /// attempts leave the previous generation serving, so the pair of
  /// counters is the degradation signal operators alert on.
  void RecordReload(bool ok);

  /// \brief The currently-published store generation (monotonic).
  void SetStoreGeneration(int64_t generation);

  /// \brief One kTopK retrieval answered: how many internal centroids
  /// the beam descent ran through the MLP, how many surviving leaves
  /// were brute-forced, the effective beam, and whether the request
  /// fell back to (or asked for) the exact linear scan. Observation
  /// only — stats come out of the engine, they never feed back in.
  void RecordIndexSearch(int64_t nodes_scored, int64_t leaves_scored,
                         int32_t beam, bool exact);

  int64_t requests_total() const;
  int64_t errors_total() const;
  int64_t shed_total() const;
  int64_t batches_total() const;
  int64_t reload_total() const;
  int64_t reload_failed_total() const;
  int64_t store_generation() const;
  int64_t index_searches_total() const;
  int64_t index_exact_total() const;
  int64_t index_nodes_scored_total() const;
  int64_t index_leaves_scored_total() const;
  int64_t index_beam() const;  ///< beam of the most recent beamed search
  double LatencyPercentile(double p) const;

  /// \brief The registry this façade reports into — the daemon's metrics
  /// verb serves obs::MetricsRegistry::DumpPrometheus() straight off it.
  obs::MetricsRegistry& registry() { return *registry_; }
  const obs::MetricsRegistry& registry() const { return *registry_; }

  /// \brief Full JSON snapshot (stable key order, pre-refactor format).
  std::string ToJson() const;

  /// \brief Atomically writes ToJson() to `path` (crash-safe like every
  /// other artifact writer).
  Status DumpJson(const std::string& path) const;

 private:
  void BindMetrics(obs::MetricsRegistry* registry);

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* requests_[kNumServeVerbs] = {};
  obs::Counter* errors_[kNumServeVerbs] = {};
  obs::Counter* shed_ = nullptr;
  obs::Counter* reload_ = nullptr;
  obs::Counter* reload_failed_ = nullptr;
  obs::Counter* index_searches_ = nullptr;
  obs::Counter* index_exact_ = nullptr;
  obs::Counter* index_nodes_scored_ = nullptr;
  obs::Counter* index_leaves_scored_ = nullptr;
  obs::Gauge* index_beam_ = nullptr;
  obs::Gauge* store_generation_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;
  obs::Histogram* batch_rows_ = nullptr;
  obs::Histogram* phase_us_[obs::kNumSpans] = {};  ///< by obs::kPhaseSpans
};

}  // namespace hignn

#endif  // HIGNN_SERVE_SERVE_METRICS_H_
