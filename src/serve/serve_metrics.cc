#include "serve/serve_metrics.h"

#include "util/io.h"
#include "util/string_util.h"

namespace hignn {

const char* ServeVerbStatName(ServeVerbStat verb) {
  switch (verb) {
    case ServeVerbStat::kScore:
      return "score";
    case ServeVerbStat::kTopK:
      return "recommend_topk";
    case ServeVerbStat::kHealth:
      return "health";
    case ServeVerbStat::kStats:
      return "stats";
    case ServeVerbStat::kReload:
      return "reload";
    case ServeVerbStat::kMetrics:
      return "metrics";
    case ServeVerbStat::kTraceDump:
      return "trace_dump";
  }
  return "unknown";
}

ServeMetrics::ServeMetrics()
    : owned_registry_(std::make_unique<obs::MetricsRegistry>()) {
  BindMetrics(owned_registry_.get());
}

ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry) {
  BindMetrics(registry);
}

void ServeMetrics::BindMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  for (int32_t v = 0; v < kNumServeVerbs; ++v) {
    const char* name = ServeVerbStatName(static_cast<ServeVerbStat>(v));
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

void ServeMetrics::RecordRequest(ServeVerbStat verb, double latency_us,
                                 bool ok) {
  requests_[static_cast<int32_t>(verb)]->Add(1);
  if (!ok) errors_[static_cast<int32_t>(verb)]->Add(1);
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

int64_t ServeMetrics::requests_total() const {
  int64_t total = 0;
  for (const obs::Counter* counter : requests_) total += counter->value();
  return total;
}

int64_t ServeMetrics::errors_total() const {
  int64_t total = 0;
  for (const obs::Counter* counter : errors_) total += counter->value();
  return total;
}

int64_t ServeMetrics::shed_total() const { return shed_->value(); }

int64_t ServeMetrics::reload_total() const { return reload_->value(); }

int64_t ServeMetrics::reload_failed_total() const {
  return reload_failed_->value();
}

int64_t ServeMetrics::store_generation() const {
  return static_cast<int64_t>(store_generation_->value());
}

int64_t ServeMetrics::batches_total() const { return batch_rows_->count(); }

int64_t ServeMetrics::index_searches_total() const {
  return index_searches_->value();
}

int64_t ServeMetrics::index_exact_total() const {
  return index_exact_->value();
}

int64_t ServeMetrics::index_nodes_scored_total() const {
  return index_nodes_scored_->value();
}

int64_t ServeMetrics::index_leaves_scored_total() const {
  return index_leaves_scored_->value();
}

int64_t ServeMetrics::index_beam() const {
  return static_cast<int64_t>(index_beam_->value());
}

double ServeMetrics::LatencyPercentile(double p) const {
  return latency_us_->Percentile(p);
}

std::string ServeMetrics::ToJson() const {
  std::string json = "{\n  \"verbs\": {";
  for (int32_t v = 0; v < kNumServeVerbs; ++v) {
    json += StrFormat(
        "%s\"%s\": {\"requests\": %lld, \"errors\": %lld}", v ? ", " : "",
        ServeVerbStatName(static_cast<ServeVerbStat>(v)),
        static_cast<long long>(requests_[v]->value()),
        static_cast<long long>(errors_[v]->value()));
  }
  json += "},\n";
  json += StrFormat("  \"shed_total\": %lld,\n",
                    static_cast<long long>(shed_->value()));
  json += StrFormat("  \"store_generation\": %lld,\n",
                    static_cast<long long>(store_generation()));
  json += StrFormat(
      "  \"reloads\": {\"total\": %lld, \"failed\": %lld},\n",
      static_cast<long long>(reload_->value()),
      static_cast<long long>(reload_failed_->value()));
  json += StrFormat(
      "  \"index\": {\"searches\": %lld, \"exact\": %lld, "
      "\"nodes_scored\": %lld, \"leaves_scored\": %lld, \"beam\": %lld},\n",
      static_cast<long long>(index_searches_->value()),
      static_cast<long long>(index_exact_->value()),
      static_cast<long long>(index_nodes_scored_->value()),
      static_cast<long long>(index_leaves_scored_->value()),
      static_cast<long long>(index_beam()));
  json += StrFormat(
      "  \"latency_us\": {\"count\": %lld, \"p50\": %.1f, \"p95\": %.1f, "
      "\"p99\": %.1f, \"histogram\": %s},\n",
      static_cast<long long>(latency_us_->count()),
      latency_us_->Percentile(0.50), latency_us_->Percentile(0.95),
      latency_us_->Percentile(0.99), latency_us_->BucketsJson().c_str());
  json += StrFormat(
      "  \"batch_rows\": {\"count\": %lld, \"p50\": %.1f, "
      "\"histogram\": %s}\n",
      static_cast<long long>(batch_rows_->count()),
      batch_rows_->Percentile(0.50), batch_rows_->BucketsJson().c_str());
  json += "}\n";
  return json;
}

Status ServeMetrics::DumpJson(const std::string& path) const {
  return AtomicWriteTextFile(path, ToJson());
}

}  // namespace hignn
