#ifndef HIGNN_BENCH_BENCH_REPORT_H_
#define HIGNN_BENCH_BENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace hignn::bench {

/// \brief Metrics and correctness checks of one benchmark run, printed
/// as a single JSON object (see hignn_bench.cc for the schema).
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    int64_t n = 1;
    bool repeated = false;  ///< p25/p75/p999 below are meaningful
    double p25 = 0.0;
    double p75 = 0.0;
    double p999 = 0.0;
  };

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t n = 1) {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = value;
    m.n = n;
    metrics_.push_back(m);
  }

  /// \brief Reports `pick` of `s` (default: the median) with its sample
  /// count, every value multiplied by `scale`; a median also carries the
  /// quartiles and p99.9.
  void AddSummary(const std::string& name, const Summary& s,
                  const std::string& unit, double scale = 1.0,
                  double Summary::*pick = &Summary::median) {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = s.*pick * scale;
    m.n = s.n;
    m.repeated = s.n > 1 && pick == &Summary::median;
    m.p25 = s.p25 * scale;
    m.p75 = s.p75 * scale;
    m.p999 = s.p999 * scale;
    metrics_.push_back(m);
  }

  /// \brief Records a correctness check; one failure makes the run
  /// incorrect.
  void Check(const std::string& name, bool ok) {
    checks_.push_back({name, ok});
  }

  /// \brief Free-form detail (pre-rendered JSON value) for the report.
  void Detail(const std::string& key, const std::string& json_value) {
    details_.push_back({key, json_value});
  }

  bool correct() const {
    for (const auto& check : checks_) {
      if (!check.second) return false;
    }
    return true;
  }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// \brief One-line JSON: {"metrics": {...}, "checks": {...}, ...}.
  std::string Json(const std::string& prefix_fields) const {
    std::string out = "{" + prefix_fields;
    out += StrFormat("\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                     correct() ? "true" : "false",
                     static_cast<long long>(attempted),
                     static_cast<long long>(failed));
    out += "\"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\", "
                       "\"n\": %lld",
                       i ? ", " : "", m.name.c_str(), Number(m.value).c_str(),
                       m.unit.c_str(), static_cast<long long>(m.n));
      if (m.repeated) {
        out += StrFormat(", \"p25\": %s, \"p75\": %s, \"p999\": %s",
                         Number(m.p25).c_str(), Number(m.p75).c_str(),
                         Number(m.p999).c_str());
      }
      out += "}";
    }
    out += "}, \"checks\": {";
    for (size_t i = 0; i < checks_.size(); ++i) {
      out += StrFormat("%s\"%s\": %s", i ? ", " : "",
                       checks_[i].first.c_str(),
                       checks_[i].second ? "true" : "false");
    }
    out += "}";
    for (const auto& detail : details_) {
      out += ", \"" + detail.first + "\": " + detail.second;
    }
    out += "}";
    return out;
  }

  /// \brief JSON number with every significant digit (NaN/inf become
  /// null, which the runner treats as a missing metric).
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    return StrFormat("%.10g", v);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> details_;
};

/// \brief Bench-side span recorder for the traced pass: one span per
/// call into a layer's public function, with its parent and a level
/// argument. Spans stay in memory and are written once, at exit, as
/// Chrome trace JSON. Thread-safe, so load-generator threads can record
/// per-request spans.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int32_t op = 0;      ///< spans of one traced operation share this id
    int32_t level = 0;
    int32_t parent = -1;
    int64_t start_us = 0;
    int64_t end_us = -1;
  };

  int32_t Begin(const char* name, int32_t op, int32_t level, int32_t parent) {
    Span span;
    span.name = name;
    span.op = op;
    span.level = level;
    span.parent = parent;
    span.start_us = obs::NowMicros();
    MutexLock lock(mu_);
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id) {
    const int64_t now = obs::NowMicros();
    MutexLock lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = now;
  }

  /// \brief Copy of every span recorded so far.
  std::vector<Span> Snapshot() const {
    MutexLock lock(mu_);
    return spans_;
  }

  /// \brief Duration of span `id` in seconds.
  static double Seconds(const std::vector<Span>& spans, int32_t id) {
    const Span& s = spans[static_cast<size_t>(id)];
    return static_cast<double>(s.end_us - s.start_us) * 1e-6;
  }

  /// \brief Span duration minus the part of its interval that its direct
  /// children cover (overlapping children are counted once).
  static double SelfSeconds(const std::vector<Span>& spans, int32_t id) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span& s : spans) {
      if (s.parent == id) covered.push_back({s.start_us, s.end_us});
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_us = 0;
    int64_t reach = spans[static_cast<size_t>(id)].start_us;
    for (const auto& [start, end] : covered) {
      const int64_t from = std::max(start, reach);
      if (end > from) covered_us += end - from;
      reach = std::max(reach, end);
    }
    return Seconds(spans, id) - static_cast<double>(covered_us) * 1e-6;
  }

  std::string ChromeJson() const {
    const std::vector<Span> spans = Snapshot();
    std::string json = "{\"traceEvents\": [";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      json += StrFormat(
          "%s\n  {\"name\": \"%s\", \"cat\": \"hignn_bench\", \"ph\": \"X\", "
          "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %d, "
          "\"args\": {\"id\": %zu, \"op\": %d, \"level\": %d, "
          "\"parent\": %d}}",
          i ? "," : "", s.name, static_cast<long long>(s.start_us),
          static_cast<long long>(s.end_us - s.start_us), s.op, i, s.op,
          s.level, s.parent);
    }
    json += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return json;
  }

 private:
  mutable Mutex mu_;
  std::vector<Span> spans_ HIGNN_GUARDED_BY(mu_);
};

/// \brief RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int32_t op, int32_t level,
             int32_t parent)
      : log_(log), id_(log.Begin(name, op, level, parent)) {}
  ~ScopedSpan() { log_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog& log_;
  const int32_t id_;
};

}  // namespace hignn::bench

#endif  // HIGNN_BENCH_BENCH_REPORT_H_
