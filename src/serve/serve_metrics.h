#ifndef HIGNN_SERVE_SERVE_METRICS_H_
#define HIGNN_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <memory>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "serve/wire.h"

namespace hignn {

/// \brief The serving stack's recorder: binds the `serve.*` metrics in an
/// obs::MetricsRegistry once and records into them — request/error
/// counters per wire verb, the request-latency and batch-size histograms,
/// per-phase latency, shed counts, the hot-reload lifecycle (store
/// generation gauge, reload / reload-failed counters) and the
/// cluster-tree retrieval index (`serve.index.*`).
///
/// Reading is the registry's job: the `stats` verb serves
/// MetricsRegistry::DumpJson(), `metrics` its Prometheus exposition, and
/// `--metrics-out` DumpJsonToFile(). The default constructor owns a
/// private registry (test isolation); pass &obs::MetricsRegistry::Global()
/// to share the process-wide one. All methods are thread-safe (lock-free
/// atomics).
class ServeMetrics {
 public:
  /// \brief Records into a private registry of its own.
  ServeMetrics();

  /// \brief Records into `registry` (not owned; must outlive this).
  explicit ServeMetrics(obs::MetricsRegistry* registry);

  /// \brief One finished request: verb, wall latency, success flag.
  void RecordRequest(WireVerb verb, double latency_us, bool ok);

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

  /// \brief Forwards the batcher has issued (`serve.batch_rows` count).
  int64_t batches_total() const { return batch_rows_->count(); }

  /// \brief The registry this records into; every reader goes through it.
  obs::MetricsRegistry& registry() { return *registry_; }
  const obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  void BindMetrics(obs::MetricsRegistry* registry);

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* requests_[kNumWireVerbs] = {};  ///< by verb byte - 1
  obs::Counter* errors_[kNumWireVerbs] = {};
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
