#include "serve/serve_metrics.h"

#include "util/string_util.h"

namespace hignn {

ServeMetrics::ServeMetrics()
    : owned_registry_(std::make_unique<obs::MetricsRegistry>()) {
  BindMetrics(owned_registry_.get());
}

ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry) {
  BindMetrics(registry);
}

void ServeMetrics::BindMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  for (int32_t v = 0; v < kNumWireVerbs; ++v) {
    const char* name = VerbName(static_cast<WireVerb>(v + 1));
    requests_[v] =
        &registry->GetCounter(StrFormat("serve.requests.%s", name));
    errors_[v] = &registry->GetCounter(StrFormat("serve.errors.%s", name));
  }
  shed_ = &registry->GetCounter("serve.shed_total");
  reload_ = &registry->GetCounter("serve.reload_total");
  reload_failed_ = &registry->GetCounter("serve.reload_failed_total");
  index_searches_ = &registry->GetCounter("serve.index.searches_total");
  index_exact_ = &registry->GetCounter("serve.index.exact_total");
  index_nodes_scored_ =
      &registry->GetCounter("serve.index.nodes_scored_total");
  index_leaves_scored_ =
      &registry->GetCounter("serve.index.leaves_scored_total");
  index_beam_ = &registry->GetGauge("serve.index.beam");
  store_generation_ = &registry->GetGauge("serve.store_generation");
  latency_us_ = &registry->GetHistogram("serve.latency_us",
                                        obs::DefaultLatencyBoundsUs());
  batch_rows_ = &registry->GetHistogram("serve.batch_rows",
                                        obs::DefaultBatchRowBounds());
  for (size_t s = 0; s < obs::kNumSpans; ++s) {
    phase_us_[s] = &registry->GetHistogram(
        StrFormat("serve.phase.%s_us", obs::kPhaseSpans[s].name),
        obs::DefaultLatencyBoundsUs());
  }
}

void ServeMetrics::RecordRequest(WireVerb verb, double latency_us,
                                 bool ok) {
  const int32_t v = static_cast<int32_t>(verb) - 1;
  requests_[v]->Add(1);
  if (!ok) errors_[v]->Add(1);
  latency_us_->Record(latency_us);
}

void ServeMetrics::RecordPhases(const obs::Event& event) {
  for (size_t s = 0; s < obs::kNumSpans; ++s) {
    const int64_t us = event.SpanUs(obs::kPhaseSpans[s]);
    if (us >= 0) phase_us_[s]->Record(static_cast<double>(us));
  }
}

void ServeMetrics::RecordShed() { shed_->Add(1); }

void ServeMetrics::RecordReload(bool ok) {
  reload_->Add(1);
  if (!ok) reload_failed_->Add(1);
}

void ServeMetrics::SetStoreGeneration(int64_t generation) {
  store_generation_->Set(static_cast<double>(generation));
}

void ServeMetrics::RecordBatch(int64_t rows) {
  batch_rows_->Record(static_cast<double>(rows));
}

void ServeMetrics::RecordIndexSearch(int64_t nodes_scored,
                                     int64_t leaves_scored, int32_t beam,
                                     bool exact) {
  index_searches_->Add(1);
  if (exact) {
    index_exact_->Add(1);
    return;
  }
  index_nodes_scored_->Add(nodes_scored);
  index_leaves_scored_->Add(leaves_scored);
  index_beam_->Set(static_cast<double>(beam));
}

}  // namespace hignn
