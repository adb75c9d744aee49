#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/metrics.h"
#include "util/io.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace hignn {
namespace obs {

namespace {

// Per-thread buffer bound: a deep Fit emits a few spans per step, so
// 64k spans covers any realistic run; past it we drop and tally.
constexpr size_t kMaxEventsPerThread = 1 << 16;

struct TraceEvent {
  const char* name;    // string literal only (HIGNN_SPAN contract)
  int64_t start_us;
  int64_t duration_us;
  int32_t tid;         // buffer registration index, not the OS tid
  int64_t seq;         // global completion order
  std::vector<TraceArg> args;
};

// Each thread owns one buffer with its own mutex: recording contends
// only with an export that is concurrently snapshotting (rare), never
// with other recording threads. The collector owns the buffers so
// spans survive thread exit.
struct ThreadBuffer {
  explicit ThreadBuffer(int32_t id) : tid(id) {}

  Mutex mu;
  std::vector<TraceEvent> events HIGNN_GUARDED_BY(mu);
  const int32_t tid;  // registration index, fixed at construction
};

struct Collector {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers HIGNN_GUARDED_BY(mu);
  std::atomic<int64_t> seq{0};
  std::atomic<int64_t> dropped{0};
};

Collector& GlobalCollector() {
  static Collector* collector = new Collector();
  return *collector;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Collector& collector = GlobalCollector();
    MutexLock lock(collector.mu);
    const int32_t tid = static_cast<int32_t>(collector.buffers.size());
    collector.buffers.push_back(std::make_unique<ThreadBuffer>(tid));
    return collector.buffers.back().get();
  }();
  return *buffer;
}

void RecordSpan(const char* name, int64_t start_us, int64_t end_us,
                std::vector<TraceArg> args) {
  Collector& collector = GlobalCollector();
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    collector.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event;
  event.name = name;
  event.start_us = start_us;
  event.duration_us = end_us - start_us;
  event.tid = buffer.tid;
  event.seq = collector.seq.fetch_add(1, std::memory_order_relaxed);
  event.args = std::move(args);
  buffer.events.push_back(std::move(event));
}

}  // namespace

int64_t NowMicros() {
  // One process-wide epoch so every span shares a time base. The timer
  // is monotonic (steady_clock under the hood) — this is the blessed
  // clock site the lint scope points at.
  static const WallTimer* epoch = new WallTimer();
  return static_cast<int64_t>(epoch->Seconds() * 1e6);
}

SpanGuard::SpanGuard(const char* name) : name_(name) {
  if (Enabled()) start_us_ = NowMicros();
}

SpanGuard::SpanGuard(const char* name, std::initializer_list<TraceArg> args)
    : name_(name) {
  if (Enabled()) {
    start_us_ = NowMicros();
    args_.assign(args.begin(), args.end());
  }
}

SpanGuard::~SpanGuard() {
  if (start_us_ < 0) return;  // disabled when the span opened
  RecordSpan(name_, start_us_, NowMicros(), std::move(args_));
}

std::string TraceJson(bool zero_timestamps) {
  Collector& collector = GlobalCollector();
  std::vector<TraceEvent> events;
  {
    MutexLock lock(collector.mu);
    for (const std::unique_ptr<ThreadBuffer>& buffer : collector.buffers) {
      MutexLock buffer_lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });

  std::string json = "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const long long ts =
        zero_timestamps ? 0 : static_cast<long long>(event.start_us);
    const long long dur =
        zero_timestamps ? 0 : static_cast<long long>(event.duration_us);
    std::string args = "{";
    for (size_t a = 0; a < event.args.size(); ++a) {
      args += StrFormat("%s\"%s\": %lld", a ? ", " : "", event.args[a].key,
                        static_cast<long long>(event.args[a].value));
    }
    args += "}";
    json += StrFormat(
        "%s\n  {\"name\": \"%s\", \"cat\": \"hignn\", \"ph\": \"X\", "
        "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %d, "
        "\"args\": %s}",
        i ? "," : "", event.name, ts, dur, event.tid, args.c_str());
  }
  json += StrFormat("\n], \"displayTimeUnit\": \"ms\", "
                    "\"dropped_events\": %lld}\n",
                    static_cast<long long>(
                        collector.dropped.load(std::memory_order_relaxed)));
  return json;
}

Status WriteTraceJson(const std::string& path) {
  return AtomicWriteTextFile(path, TraceJson());
}

void ResetTrace() {
  Collector& collector = GlobalCollector();
  MutexLock lock(collector.mu);
  for (const std::unique_ptr<ThreadBuffer>& buffer : collector.buffers) {
    MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  collector.seq.store(0, std::memory_order_relaxed);
  collector.dropped.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace hignn
