#ifndef HIGNN_SERVE_STORE_MANAGER_H_
#define HIGNN_SERVE_STORE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/engine.h"
#include "serve/serve_metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {

/// \brief One published store generation: an integrity-checked
/// EmbeddingStore and the PredictionEngine scoring it, tagged with a
/// monotonic generation number and the path it was loaded from.
///
/// Generations are reference-counted (shared_ptr) and never mutated
/// after publication, so a request that acquired generation N keeps
/// scoring against N even while N+1 is being published — the store and
/// engine stay alive until the last in-flight request drops its
/// reference.
struct StoreGeneration {
  int64_t number = 0;        ///< 1-based, strictly increasing
  std::string path;          ///< store file this generation was loaded from
  std::unique_ptr<PredictionEngine> engine;

  const EmbeddingStore& store() const { return engine->store(); }
};

/// \brief RCU-style owner of the live scoring generation — the piece
/// that turns `hignn_serve` from "one immutable store for the process
/// lifetime" into zero-downtime hot-swap.
///
/// Readers (the micro-batcher, the topk path) call Current() to acquire
/// a shared_ptr to the published generation: one mutex-guarded pointer
/// copy, no contention with scoring work. Reload() builds and validates
/// a complete replacement generation off to the side (the store open
/// re-runs every io v2 CRC/truncation check) and only then swaps the
/// published pointer — so a reload that fails validation is a no-op for
/// traffic: the previous generation keeps serving, untouched, and the
/// failure is only visible as `serve.reload_failed_total` ticking up.
///
/// Reloads are serialized among themselves but never block readers for
/// longer than the pointer swap.
///
/// Fault-injection sites (util/fault_injection):
///   serve.store.open      fail  -> the candidate open errors out
///   serve.reload.publish  crash -> process death between validation
///                                  and publication
class StoreManager {
 public:
  /// \brief Opens the initial generation from `path`. `metrics` is
  /// borrowed, must outlive the manager, and receives the reload counters
  /// and the store_generation gauge; null is InvalidArgument.
  static Result<std::unique_ptr<StoreManager>> Open(const std::string& path,
                                                    ServeMetrics* metrics);

  StoreManager(const StoreManager&) = delete;
  StoreManager& operator=(const StoreManager&) = delete;

  /// \brief Acquires the currently-published generation. Never null.
  std::shared_ptr<const StoreGeneration> Current() const;

  /// \brief Atomically replaces the published generation with one loaded
  /// from `path` (empty = the current generation's path). On any failure
  /// — unreadable file, CRC mismatch, truncation, injected fault — the
  /// previous generation keeps serving and the error is returned.
  /// Returns the new generation number on success. Thread-safe;
  /// concurrent reloads are serialized.
  Result<int64_t> Reload(const std::string& path = "");

  /// \brief The published generation number (monotonic from 1).
  int64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  explicit StoreManager(ServeMetrics* metrics) : metrics_(metrics) {}

  /// \brief Opens + validates a candidate engine (the fault site
  /// serve.store.open lives here).
  static Result<std::unique_ptr<PredictionEngine>> OpenEngine(
      const std::string& path);

  void Publish(std::shared_ptr<const StoreGeneration> next);

  ServeMetrics* const metrics_;  // borrowed

  mutable Mutex mu_;  ///< guards current_ (the RCU pointer)
  std::shared_ptr<const StoreGeneration> current_ HIGNN_GUARDED_BY(mu_);

  Mutex reload_mu_;  ///< serializes whole Reload() calls
  std::atomic<int64_t> generation_{0};
};

}  // namespace hignn

#endif  // HIGNN_SERVE_STORE_MANAGER_H_
