#ifndef HIGNN_SERVE_BATCHER_H_
#define HIGNN_SERVE_BATCHER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "serve/engine.h"
#include "serve/serve_metrics.h"
#include "serve/store_manager.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {

/// \brief Micro-batching knobs.
struct BatcherConfig {
  /// Target rows per engine forward. A batch closes as soon as it holds
  /// this many rows (a single larger request still runs whole — requests
  /// are never split, so each caller's scores come from one forward).
  int32_t max_batch = 64;

  /// Batching window: after the first row arrives, the collector waits
  /// at most this long for companions before closing the batch. The
  /// classic throughput/latency dial — 0 degenerates to per-request
  /// forwards.
  int32_t max_delay_us = 1000;

  /// Overload bound on rows waiting in the queue. A request that would
  /// push past it is shed immediately (fast-fail with kOverloaded) —
  /// bounded queues keep p99 honest instead of letting latency grow
  /// without limit under overload.
  int32_t max_queue_rows = 4096;
};

/// \brief Coalesces concurrent scoring requests into bounded batches for
/// the engine — the serving analogue of training minibatches: one MLP
/// forward amortizes over every request that arrived within the window.
///
/// Batch composition never changes scores (every engine kernel gives
/// each row the chain it would run alone; see PredictionEngine), so
/// batching is purely a throughput optimization with a bounded,
/// configurable latency cost.
///
/// The batcher scores against the StoreManager's current generation:
/// each closed batch acquires the published generation once and holds it
/// for the duration of the forward, so a hot-reload can land between
/// batches but never under one. Jobs are re-validated against the
/// acquired generation at execution time — if a swap changed the store's
/// shape after a job was queued, only that job fails (InvalidArgument),
/// never its batch-mates.
class MicroBatcher {
 public:
  /// \param stores, metrics  borrowed; must outlive the batcher.
  MicroBatcher(StoreManager* stores, ServeMetrics* metrics,
               const BatcherConfig& config);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// \brief Scores `requests`, blocking until the batch containing them
  /// completes. Thread-safe. Fails fast with FailedPrecondition when the
  /// queue is full (overload shed) or the batcher is stopping; invalid
  /// ids fail with InvalidArgument before entering the queue.
  ///
  /// `event` (optional, borrowed — the caller blocks here for the job's
  /// whole lifetime, so the pointer cannot dangle) receives the enqueue /
  /// batch-close / rows-assembled / forward-done phase stamps. The
  /// collector writes them before publishing Job::done under the batcher
  /// mutex, so the caller reads them race-free after Score returns.
  Result<std::vector<float>> Score(const std::vector<ScoreRequest>& requests,
                                   obs::Event* event = nullptr);

  /// \brief Graceful shutdown: new requests are rejected, queued ones
  /// are drained and answered, then the collector exits. Idempotent.
  void Stop();

 private:
  struct Job {
    std::vector<ScoreRequest> requests;
    std::vector<float> scores;
    Status status;
    bool done = false;
    obs::Event* event = nullptr;  ///< borrowed from the blocked caller
  };

  void CollectorLoop();

  StoreManager* const stores_;
  ServeMetrics* const metrics_;
  const BatcherConfig config_;

  Mutex mu_;
  CondVar job_arrived_;   // signalled to the collector
  CondVar job_finished_;  // signalled to waiting callers
  std::deque<std::shared_ptr<Job>> queue_ HIGNN_GUARDED_BY(mu_);
  int64_t queue_rows_ HIGNN_GUARDED_BY(mu_) = 0;  ///< rows across queue_
  bool stopping_ HIGNN_GUARDED_BY(mu_) = false;

  // The collector blocks on its cv for whole batching windows; parking
  // it on a GlobalThreadPool worker would starve (and can deadlock) the
  // engine's ParallelFor kernels, so it owns a dedicated thread.
  // hignn-lint: allow(naked-thread) long-blocking collector, see above
  std::thread collector_;
};

}  // namespace hignn

#endif  // HIGNN_SERVE_BATCHER_H_
