#include "obs/event_log.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {
namespace obs {

const char* Event::PhaseName(size_t phase) {
  static const char* kNames[kNumPhases] = {
      "accept_us",         "parse_us",        "enqueue_us",
      "batch_close_us",    "rows_assembled_us", "forward_done_us",
      "index_descent_us",  "reply_flushed_us"};
  HIGNN_CHECK(phase < kNumPhases);
  return kNames[phase];
}

int64_t Event::DurationUs() const {
  int64_t first = -1;
  int64_t last = -1;
  for (int64_t stamp : stamps) {
    if (stamp < 0) continue;
    if (first < 0 || stamp < first) first = stamp;
    if (stamp > last) last = stamp;
  }
  return first < 0 ? 0 : last - first;
}

int64_t Event::SpanUs(const PhaseSpan& span) const {
  for (size_t b = 0; b < span.num_begin; ++b) {
    const int64_t begin = stamps[span.begin[b]];
    if (begin < 0) continue;
    const int64_t end = stamps[span.end];
    return end >= begin ? end - begin : -1;
  }
  return -1;
}

void Stamp(Event* event, EventPhase phase) {
  if (event != nullptr && Enabled()) event->stamps[phase] = NowMicros();
}

EventLog::EventLog(size_t capacity, size_t exemplar_capacity)
    : capacity_(capacity), exemplar_capacity_(exemplar_capacity) {
  HIGNN_CHECK(capacity_ > 0);
  HIGNN_CHECK(exemplar_capacity_ > 0);
  // Pre-sized rings: Record() never allocates.
  ring_.resize(capacity_);
  exemplars_.resize(exemplar_capacity_);
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Record(const Event& event) {
  if (!Enabled()) return;
  const int64_t threshold = slow_threshold_us();
  const bool slow = threshold > 0 && event.DurationUs() >= threshold;
  {
    MutexLock lock(mu_);
    Stored& slot = ring_[next_seq_ % capacity_];
    slot.seq = next_seq_;
    slot.valid = true;
    slot.slow = slow;
    slot.event = event;
    if (slow) {
      Stored& exemplar = exemplars_[next_exemplar_slot_ % exemplar_capacity_];
      exemplar = slot;
      ++next_exemplar_slot_;
    }
    ++next_seq_;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (slow) slow_recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::string EventLog::DumpJsonl() const {
  std::vector<Stored> events;
  {
    MutexLock lock(mu_);
    events.reserve(capacity_ + exemplar_capacity_);
    for (const Stored& stored : ring_) {
      if (stored.valid) events.push_back(stored);
    }
    for (const Stored& stored : exemplars_) {
      if (stored.valid) events.push_back(stored);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Stored& a, const Stored& b) { return a.seq < b.seq; });
  // An exemplar also still present in the main ring appears twice; keep
  // the first of each seq.
  std::string jsonl;
  uint64_t last_seq = 0;
  bool any = false;
  for (const Stored& stored : events) {
    if (any && stored.seq == last_seq) continue;
    any = true;
    last_seq = stored.seq;
    jsonl += StrFormat(
        "{\"seq\": %llu, \"request_id\": \"%016llx\", \"verb\": %d, "
        "\"ok\": %s, \"slow\": %s, \"duration_us\": %lld",
        static_cast<unsigned long long>(stored.seq),
        static_cast<unsigned long long>(stored.event.request_id),
        static_cast<int>(stored.event.verb),
        stored.event.ok ? "true" : "false",
        stored.slow ? "true" : "false",
        static_cast<long long>(stored.event.DurationUs()));
    for (size_t phase = 0; phase < kNumPhases; ++phase) {
      jsonl += StrFormat(", \"%s\": %lld", Event::PhaseName(phase),
                         static_cast<long long>(stored.event.stamps[phase]));
    }
    jsonl += "}\n";
  }
  return jsonl;
}

Status EventLog::WriteJsonl(const std::string& path) const {
  return AtomicWriteTextFile(path, DumpJsonl());
}

void EventLog::Reset() {
  MutexLock lock(mu_);
  for (Stored& stored : ring_) stored = Stored();
  for (Stored& stored : exemplars_) stored = Stored();
  next_seq_ = 0;
  next_exemplar_slot_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  slow_recorded_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace hignn
