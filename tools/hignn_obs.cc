// hignn_obs — offline analyzer for the serving path's observability
// artifacts (DESIGN.md §17).
//
// Joins the per-request event log (`hignn_serve serve --events-out`, or
// the `trace-dump` client verb piped to a file) with an optional Chrome
// trace (`--trace-out`) and prints:
//
//   * a per-phase latency table (count / p50 / p95 / p99 / max) over the
//     six obs::kPhaseSpans spans the server's serve.phase.* histograms
//     record,
//   * one line per slow exemplar naming its dominant phase — the single
//     place the request spent most of its time, which is the attribution
//     operators act on,
//   * when a Chrome trace is given, the top spans by total duration so
//     the request-level and span-level views can be eyeballed together.
//
//   hignn_obs analyze --events /tmp/events.jsonl [--trace /tmp/trace.json]
//       [--top 10]
//
// Output is plain text with stable column headers so CI can grep it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "util/flags.h"

namespace hignn {
namespace {

int Usage() {
  std::fprintf(stderr, R"(usage: hignn_obs analyze --events EVENTS.jsonl
    [--trace TRACE.json]  (Chrome trace from hignn_serve --trace-out)
    [--top 10]            (spans to show from the Chrome trace)

Reads the per-request event log the scoring server dumps (--events-out,
or the trace-dump wire verb) and attributes latency to serving phases.
)");
  return 2;
}

/// Finds `"key": <value>` in a JSON object line and returns the raw value
/// token (quotes stripped). The event log and Chrome trace are emitted by
/// our own fixed-format writers, so a scanner is sufficient — no general
/// JSON parser needed (or available).
bool ExtractField(const std::string& line, const std::string& key,
                  std::string* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  size_t begin = pos + needle.size();
  if (begin >= line.size()) return false;
  size_t end;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  if (end == std::string::npos || end < begin) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

int64_t ExtractI64(const std::string& line, const std::string& key,
                   int64_t fallback) {
  std::string raw;
  if (!ExtractField(line, key, &raw)) return fallback;
  return static_cast<int64_t>(std::strtoll(raw.c_str(), nullptr, 10));
}

bool ExtractBool(const std::string& line, const std::string& key) {
  std::string raw;
  return ExtractField(line, key, &raw) && raw == "true";
}

/// Nearest-rank percentile over a sorted ascending sample.
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(
      std::max<double>(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[index - 1];
}

int RunAnalyze(const CommandLine& cl) {
  const std::string events_path = cl.GetString("events");
  if (events_path.empty()) return Usage();
  auto top = cl.GetInt("top", 10);
  if (!top.ok()) {
    std::fprintf(stderr, "error: %s\n", top.status().ToString().c_str());
    return 1;
  }

  std::ifstream in(events_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", events_path.c_str());
    return 1;
  }
  // Every event, and separately the slow exemplars, in log order. The
  // JSONL keys are the contract: stamps are read by Event::PhaseName.
  std::vector<obs::Event> events;
  std::vector<obs::Event> exemplars;
  int64_t traced_count = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string request_id;
    if (!ExtractField(line, "request_id", &request_id)) continue;
    obs::Event event;
    event.request_id = std::strtoull(request_id.c_str(), nullptr, 16);
    for (size_t phase = 0; phase < obs::kNumPhases; ++phase) {
      event.stamps[phase] = ExtractI64(line, obs::Event::PhaseName(phase), -1);
    }
    events.push_back(event);
    if (ExtractBool(line, "slow")) exemplars.push_back(event);
    if (event.request_id != 0) ++traced_count;
  }
  std::printf("hignn_obs: %zu events (%zu slow, %lld traced) from %s\n",
              events.size(), exemplars.size(),
              static_cast<long long>(traced_count), events_path.c_str());

  std::printf("phase latency percentiles (us):\n");
  std::printf("  %-12s %8s %10s %10s %10s %10s\n", "phase", "count", "p50",
              "p95", "p99", "max");
  for (const obs::PhaseSpan& span : obs::kPhaseSpans) {
    std::vector<int64_t> samples;
    for (const obs::Event& event : events) {
      const int64_t delta = event.SpanUs(span);
      if (delta >= 0) samples.push_back(delta);
    }
    std::sort(samples.begin(), samples.end());
    std::printf("  %-12s %8zu %10lld %10lld %10lld %10lld\n", span.name,
                samples.size(),
                static_cast<long long>(Percentile(samples, 0.50)),
                static_cast<long long>(Percentile(samples, 0.95)),
                static_cast<long long>(Percentile(samples, 0.99)),
                static_cast<long long>(
                    samples.empty() ? 0 : samples.back()));
  }

  // Slow exemplars: name the single span that dominated each one. A
  // request with no spans at all (a health probe that somehow tripped
  // the threshold) is attributed to "unknown".
  std::printf("slow exemplars: %zu\n", exemplars.size());
  for (const obs::Event& event : exemplars) {
    const char* dominant = "unknown";
    int64_t dominant_us = -1;
    for (const obs::PhaseSpan& span : obs::kPhaseSpans) {
      const int64_t delta = event.SpanUs(span);
      if (delta > dominant_us) {
        dominant_us = delta;
        dominant = span.name;
      }
    }
    std::printf(
        "  request %016llx duration_us=%lld dominant=%s dominant_us=%lld\n",
        static_cast<unsigned long long>(event.request_id),
        static_cast<long long>(event.DurationUs()), dominant,
        static_cast<long long>(std::max<int64_t>(dominant_us, 0)));
  }

  const std::string trace_path = cl.GetString("trace");
  if (!trace_path.empty()) {
    std::ifstream trace_in(trace_path);
    if (!trace_in) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
      return 1;
    }
    // One span per line (the writer emits them that way); aggregate
    // count and total duration per span name.
    struct SpanAgg {
      int64_t count = 0;
      int64_t total_us = 0;
    };
    std::map<std::string, SpanAgg> spans;
    while (std::getline(trace_in, line)) {
      std::string name;
      if (!ExtractField(line, "name", &name)) continue;
      SpanAgg& agg = spans[name];
      agg.count += 1;
      agg.total_us += ExtractI64(line, "dur", 0);
    }
    std::vector<std::pair<std::string, SpanAgg>> ranked(spans.begin(),
                                                        spans.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second.total_us != b.second.total_us) {
                  return a.second.total_us > b.second.total_us;
                }
                return a.first < b.first;
              });
    std::printf("trace spans (top %lld by total duration):\n",
                static_cast<long long>(top.value()));
    std::printf("  %-28s %8s %12s\n", "span", "count", "total_us");
    const size_t limit =
        std::min(ranked.size(), static_cast<size_t>(
                                    std::max<int64_t>(0, top.value())));
    for (size_t i = 0; i < limit; ++i) {
      std::printf("  %-28s %8lld %12lld\n", ranked[i].first.c_str(),
                  static_cast<long long>(ranked[i].second.count),
                  static_cast<long long>(ranked[i].second.total_us));
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "error: %s\n", cl.status().ToString().c_str());
    return 1;
  }
  if (cl.value().command() == "analyze") return RunAnalyze(cl.value());
  return Usage();
}

}  // namespace
}  // namespace hignn

int main(int argc, char** argv) { return hignn::Run(argc, argv); }
