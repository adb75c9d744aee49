#ifndef HIGNN_OBS_TRACE_H_
#define HIGNN_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/status.h"

namespace hignn {
namespace obs {

/// \brief Scoped trace spans exported as Chrome `trace_event` JSON
/// (load the file in chrome://tracing or https://ui.perfetto.dev).
///
/// Every span records name, start, duration, thread and a few integer
/// args onto a per-thread buffer: recording takes one uncontended mutex
/// per span (the buffer's own), so the hot paths PR 1 parallelized never
/// serialize on a shared collector. Like the metrics registry, spans are
/// observation-only — clock values never feed deterministic state
/// (hignn_lint rule `nondet-source` scopes clock reads to src/obs/).

/// \brief Microseconds since process start (monotonic). The single
/// blessed wall-clock read for instrumentation; compute code must not
/// call clocks directly.
int64_t NowMicros();

/// \brief Monotonic stopwatch for elapsed-time reporting. This is the
/// facade compute code uses instead of util/timer.h's WallTimer (which
/// lint now scopes to src/obs/). NOT gated by Enabled(): measured
/// durations (bench results, taxonomy wall_seconds, serve latencies)
/// must stay meaningful under --obs-off.
class Stopwatch {
 public:
  Stopwatch() : start_us_(NowMicros()) {}
  void Restart() { start_us_ = NowMicros(); }
  double Seconds() const {
    return static_cast<double>(NowMicros() - start_us_) * 1e-6;
  }
  double Millis() const { return Seconds() * 1e3; }
  double Micros() const { return static_cast<double>(NowMicros() - start_us_); }

 private:
  int64_t start_us_;
};

/// \brief One `"k": v` integer argument attached to a span.
struct TraceArg {
  const char* key;
  int64_t value;
};

/// \brief RAII span: records start on construction, duration on
/// destruction. Use via HIGNN_SPAN rather than directly. When tracing is
/// disabled (--obs-off) construction is a single atomic load.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  SpanGuard(const char* name, std::initializer_list<TraceArg> args);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_;
  int64_t start_us_ = -1;  // -1 => disabled at construction, skip record
  std::vector<TraceArg> args_;
};

/// \brief Chrome trace_event JSON of every span recorded so far, in
/// deterministic completion order (a global sequence number assigned at
/// span end). `zero_timestamps` replaces ts/dur with 0 so golden tests
/// can compare bytes.
std::string TraceJson(bool zero_timestamps = false);

/// \brief Atomically writes TraceJson() to `path`.
Status WriteTraceJson(const std::string& path);

/// \brief Clears all recorded spans (buffers stay registered). Tests only.
void ResetTrace();

}  // namespace obs
}  // namespace hignn

#define HIGNN_OBS_CONCAT_INNER(a, b) a##b
#define HIGNN_OBS_CONCAT(a, b) HIGNN_OBS_CONCAT_INNER(a, b)

/// \brief Open a scope-long trace span:
///   HIGNN_SPAN("kmeans.lloyd");
///   HIGNN_SPAN("fit.level", {{"level", l}});
#define HIGNN_SPAN(...)                                     \
  ::hignn::obs::SpanGuard HIGNN_OBS_CONCAT(hignn_span_, __LINE__) { \
    __VA_ARGS__                                             \
  }

#endif  // HIGNN_OBS_TRACE_H_
