#ifndef HIGNN_OBS_EVENT_LOG_H_
#define HIGNN_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {
namespace obs {

/// \brief Phase stamps of one serving request, in lifecycle order
/// (DESIGN.md §17). The indexes are the stable wire / event-log contract:
/// replies echo the stamps in this order, and Event::PhaseName() names
/// them for the JSONL dump.
enum EventPhase : size_t {
  kPhaseAccept = 0,         ///< connection handed to a handler
  kPhaseParse = 1,          ///< request frame decoded
  kPhaseEnqueue = 2,        ///< job entered the batch queue
  kPhaseBatchClose = 3,     ///< batching window closed on the job
  kPhaseRowsAssembled = 4,  ///< feature rows gathered from the store
  kPhaseForwardDone = 5,    ///< MLP forward finished
  kPhaseIndexDescent = 6,   ///< cluster-tree beam descent finished
  kPhaseReplyFlushed = 7,   ///< response frame handed to the kernel
};
inline constexpr size_t kNumPhases = 8;

/// \brief One latency span: from the first present `begin` stamp (in
/// fallback order) to the `end` stamp. A verb's path skips some phases,
/// so e.g. row assembly starts at the batch close (batched score), the
/// index descent (beamed topk) or the parse (exact-scan topk).
struct PhaseSpan {
  const char* name;
  EventPhase end;
  EventPhase begin[3];
  size_t num_begin;
};

/// \brief The six spans, in report order. The serve.phase.<name>_us
/// histograms, hignn_obs's tables and dominant-phase attribution all
/// read this one table.
inline constexpr PhaseSpan kPhaseSpans[] = {
    {"parse", kPhaseParse, {kPhaseAccept}, 1},
    {"queue_wait", kPhaseBatchClose, {kPhaseEnqueue}, 1},
    {"index", kPhaseIndexDescent, {kPhaseParse}, 1},
    {"assemble", kPhaseRowsAssembled,
     {kPhaseBatchClose, kPhaseIndexDescent, kPhaseParse}, 3},
    {"forward", kPhaseForwardDone, {kPhaseRowsAssembled}, 1},
    {"reply", kPhaseReplyFlushed, {kPhaseForwardDone, kPhaseParse}, 2},
};
inline constexpr size_t kNumSpans = sizeof(kPhaseSpans) / sizeof(PhaseSpan);

/// \brief Per-request trace state and its structured event-log record
/// (DESIGN.md §17). The server threads one Event through its layers
/// (server -> MicroBatcher -> PredictionEngine), each stamping the phase
/// it completes with a monotonic microsecond time (process epoch,
/// obs::NowMicros()); -1 marks a phase the request never reached. The
/// obs layer stays serve-agnostic: the verb is the raw wire byte.
///
/// Ownership: the handler thread owns the event for the request's
/// lifetime. The batcher's collector writes the enqueue-to-forward
/// stamps while the handler blocks on the job; the batcher's mutex
/// handoff publishes those writes back, so no stamp is read concurrently
/// with its write.
///
/// Observation-only (§11): nothing here feeds scores, batching or any
/// other deterministic output.
struct Event {
  uint64_t request_id = 0;  ///< from the request frame; 0 = untraced
  uint8_t verb = 0;
  bool ok = true;  ///< answered kOk
  int64_t stamps[kNumPhases] = {-1, -1, -1, -1, -1, -1, -1, -1};

  static const char* PhaseName(size_t phase);

  /// \brief End-to-end duration: last present stamp minus first present
  /// stamp, or 0 when fewer than two phases were stamped.
  int64_t DurationUs() const;

  /// \brief Duration of `span` in microseconds, or -1 when the request
  /// never crossed it (a boundary stamp is absent or out of order).
  int64_t SpanUs(const PhaseSpan& span) const;
};

/// \brief Stamps `phase` on `event` with obs::NowMicros(). A no-op for a
/// null event or when collection is disabled, so the --obs-off path never
/// reads the clock.
void Stamp(Event* event, EventPhase phase);

/// \brief Bounded, lock-cheap structured event log: a fixed-size ring of
/// recent events plus a separate exemplar ring that always captures slow
/// requests (duration above the configured threshold), so a burst of fast
/// traffic can never evict the one slow request worth debugging.
///
/// Record() is O(1) — two array stores and a handful of scalar writes
/// under a mutex held for no allocation — and is a no-op when collection
/// is disabled (--obs-off), keeping the §11 observation-only contract:
/// nothing here is read by the serving path itself.
///
/// DumpJsonl() is deterministic for a given record history: events come
/// out in sequence order, deduplicated between the two rings, one JSON
/// object per line with a stable key order.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr size_t kDefaultExemplarCapacity = 256;
  /// Default slow threshold: 50ms, matching ServerConfig::slow_threshold_us.
  static constexpr int64_t kDefaultSlowThresholdUs = 50000;

  explicit EventLog(size_t capacity = kDefaultCapacity,
                    size_t exemplar_capacity = kDefaultExemplarCapacity);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// \brief The process-wide log the serving daemon records into.
  static EventLog& Global();

  /// \brief Threshold (µs) above which an event is an always-kept slow
  /// exemplar; <= 0 disables exemplar capture.
  void set_slow_threshold_us(int64_t threshold_us) {
    slow_threshold_us_.store(threshold_us, std::memory_order_relaxed);
  }
  int64_t slow_threshold_us() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }

  /// \brief Appends `event` (no-op when obs::Enabled() is false).
  void Record(const Event& event);

  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t slow_recorded() const {
    return slow_recorded_.load(std::memory_order_relaxed);
  }

  /// \brief One JSON object per line, sequence order, rings deduplicated;
  /// slow exemplars carry `"slow": true`.
  std::string DumpJsonl() const;

  /// \brief Atomically writes DumpJsonl() to `path`.
  Status WriteJsonl(const std::string& path) const;

  /// \brief Drops every stored event and restarts sequence numbering.
  void Reset();

 private:
  struct Stored {
    uint64_t seq = 0;
    bool valid = false;
    bool slow = false;
    Event event;
  };

  const size_t capacity_;
  const size_t exemplar_capacity_;
  std::atomic<int64_t> slow_threshold_us_{kDefaultSlowThresholdUs};
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> slow_recorded_{0};

  mutable Mutex mu_;
  std::vector<Stored> ring_ HIGNN_GUARDED_BY(mu_);
  std::vector<Stored> exemplars_ HIGNN_GUARDED_BY(mu_);
  uint64_t next_seq_ HIGNN_GUARDED_BY(mu_) = 0;
  uint64_t next_exemplar_slot_ HIGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace hignn

#endif  // HIGNN_OBS_EVENT_LOG_H_
