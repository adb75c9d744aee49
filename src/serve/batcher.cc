#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hignn {

namespace {

// True when every id in `requests` is addressable in `store`.
bool RequestsValidFor(const EmbeddingStore& store,
                      const std::vector<ScoreRequest>& requests) {
  for (const ScoreRequest& request : requests) {
    if (request.user < 0 || request.user >= store.num_users() ||
        request.item < 0 || request.item >= store.num_items()) {
      return false;
    }
  }
  return true;
}

}  // namespace

MicroBatcher::MicroBatcher(StoreManager* stores, ServeMetrics* metrics,
                           const BatcherConfig& config)
    : stores_(stores), metrics_(metrics), config_(config) {
  HIGNN_CHECK(stores_ != nullptr);
  HIGNN_CHECK(metrics_ != nullptr);
  HIGNN_CHECK_GT(config_.max_batch, 0);
  HIGNN_CHECK_GE(config_.max_delay_us, 0);
  HIGNN_CHECK_GT(config_.max_queue_rows, 0);
  // hignn-lint: allow(naked-thread) long-blocking collector (batcher.h)
  collector_ = std::thread([this] { CollectorLoop(); });
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  job_arrived_.NotifyAll();
  if (collector_.joinable()) collector_.join();
}

Result<std::vector<float>> MicroBatcher::Score(
    const std::vector<ScoreRequest>& requests, obs::Event* event) {
  if (requests.empty()) return std::vector<float>{};
  // Validate before queueing so one bad id rejects only its own request,
  // never a coalesced batch containing other callers' rows. (The
  // collector re-validates against whatever generation it acquires at
  // execution time, in case a hot-swap changed the store shape between
  // here and there.)
  const std::shared_ptr<const StoreGeneration> generation =
      stores_->Current();
  if (!RequestsValidFor(generation->store(), requests)) {
    return Status::InvalidArgument("invalid (user, item) pair in request");
  }

  auto job = std::make_shared<Job>();
  job->requests = requests;
  job->event = event;
  // Observation-only (DESIGN.md §17): obs::Stamp never reads the clock
  // under --obs-off, so the batcher stays clock-free outside the window.
  obs::Stamp(event, obs::kPhaseEnqueue);
  {
    MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("batcher is shutting down");
    }
    const int64_t rows = static_cast<int64_t>(requests.size());
    if (queue_rows_ + rows > config_.max_queue_rows) {
      metrics_->RecordShed();
      return Status::FailedPrecondition(
          StrFormat("overloaded: %lld rows queued (limit %d)",
                    static_cast<long long>(queue_rows_),
                    config_.max_queue_rows));
    }
    queue_.push_back(job);
    queue_rows_ += rows;
    job_arrived_.NotifyOne();
    while (!job->done) job_finished_.Wait(lock);
  }
  HIGNN_RETURN_IF_ERROR(job->status);
  return std::move(job->scores);
}

void MicroBatcher::CollectorLoop() {
  while (true) {
    // Phase 1 (locked): wait for work, run the batching window, pop a
    // closed batch. The critical section ends before any scoring so the
    // engine forward never runs under mu_ — that scope split is exactly
    // what the lock-discipline lint rule checks for.
    std::vector<std::shared_ptr<Job>> batch;
    int64_t batch_rows = 0;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) job_arrived_.Wait(lock);
      if (queue_.empty()) {
        if (stopping_) return;  // drained — graceful exit
        continue;
      }

      // Batching window: from the first waiting job, give companions up
      // to max_delay_us to arrive (or until max_batch rows are ready).
      // Under shutdown the window collapses so draining is prompt.
      const double delay_seconds =
          static_cast<double>(config_.max_delay_us) * 1e-6;
      // The batching window is time-driven control flow by design; it
      // affects batch composition, never scores.
      // hignn-lint: allow(nondet-source) reviewed wall-clock batching window
      WallTimer window;
      while (!stopping_ && queue_rows_ < config_.max_batch) {
        const double remaining = delay_seconds - window.Seconds();
        if (remaining <= 0.0) break;
        job_arrived_.WaitFor(lock, std::chrono::duration<double>(remaining));
      }

      // Close the batch: whole jobs up to max_batch rows, always at
      // least one (a single oversized request runs alone).
      while (!queue_.empty()) {
        const int64_t rows =
            static_cast<int64_t>(queue_.front()->requests.size());
        if (!batch.empty() && batch_rows + rows > config_.max_batch) break;
        batch.push_back(queue_.front());
        queue_.pop_front();
        batch_rows += rows;
        queue_rows_ -= rows;
      }
      // Stamp the window close on every member while still under mu_ —
      // the owning callers are parked in job_finished_.Wait, so these
      // writes cannot race their eventual reads.
      for (const auto& job : batch) {
        obs::Stamp(job->event, obs::kPhaseBatchClose);
      }
    }

    // Phase 2 (unlocked): score. Acquire the published generation once
    // per batch: every row in this
    // forward scores against one consistent store, and a reload landing
    // mid-flight only affects the *next* batch. Jobs whose ids no longer
    // fit the acquired store (the shape changed since they were queued)
    // fail individually; their batch-mates still score.
    const std::shared_ptr<const StoreGeneration> generation =
        stores_->Current();
    std::vector<std::shared_ptr<Job>> runnable;
    runnable.reserve(batch.size());
    std::vector<ScoreRequest> combined;
    combined.reserve(static_cast<size_t>(batch_rows));
    for (const auto& job : batch) {
      if (RequestsValidFor(generation->store(), job->requests)) {
        runnable.push_back(job);
        combined.insert(combined.end(), job->requests.begin(),
                        job->requests.end());
      } else {
        job->status = Status::InvalidArgument(
            "request invalidated by a store reload");
      }
    }
    // The batch shares one forward, so its members share the assembly /
    // forward stamps; collect them only when some member wants them.
    bool any_event = false;
    for (const auto& job : runnable) any_event |= job->event != nullptr;
    obs::Event batch_stamps;
    Result<std::vector<float>> scores =
        combined.empty()
            ? std::vector<float>{}
            : generation->engine->ScoreBatch(
                  combined, any_event ? &batch_stamps : nullptr);
    metrics_->RecordBatch(batch_rows);

    // Phase 3 (locked): distribute results and publish done under mu_ so
    // the waiters' `while (!job->done)` loops observe the flag safely.
    {
      MutexLock lock(mu_);
      size_t offset = 0;
      for (const auto& job : runnable) {
        if (scores.ok()) {
          const std::vector<float>& all = scores.value();
          job->scores.assign(
              all.begin() + static_cast<long>(offset),
              all.begin() + static_cast<long>(offset + job->requests.size()));
        } else {
          job->status = scores.status();
        }
        if (job->event != nullptr) {
          for (const obs::EventPhase phase :
               {obs::kPhaseRowsAssembled, obs::kPhaseForwardDone}) {
            job->event->stamps[phase] = batch_stamps.stamps[phase];
          }
        }
        offset += job->requests.size();
      }
      for (const auto& job : batch) job->done = true;
    }
    job_finished_.NotifyAll();
  }
}

}  // namespace hignn
