#ifndef HIGNN_UTIL_THREAD_POOL_H_
#define HIGNN_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hignn {

/// \brief Fixed-size worker pool with ParallelFor conveniences.
///
/// The paper trains on a 300-worker cluster; this pool is the single-host
/// analogue used by the MatMul kernels, K-means assignment, SAGE minibatch
/// assembly and graph coarsening. On a single-core host it degrades
/// gracefully to inline execution (num_threads == 1 runs tasks on the
/// calling thread).
///
/// Reentrancy: ParallelFor / ParallelForChunks called from inside a pool
/// task run their body inline on the calling worker instead of blocking in
/// Wait(), so nested parallel kernels cannot deadlock.
///
/// Completion is per call: every ParallelFor / ParallelForWork /
/// ParallelForChunks call tracks its own chunks and returns as soon as
/// those are done, so concurrent external callers (serving handler
/// threads) share the workers without waiting on each other's work. The
/// calling thread runs chunks too: it and the workers claim chunk indices
/// from one counter, so a call completes even while every worker is busy.
///
/// Exceptions: a task that throws does not kill the worker. A chunk's
/// exception is rethrown from the ParallelFor call that submitted it, and
/// only from that one; a bare Submit() task's exception is rethrown from
/// the next Wait().
class ThreadPool {
 public:
  /// \brief Creates a pool with `num_threads` workers (0 means
  /// hardware_concurrency, at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

  /// \brief Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every Submit()ted task has finished, then
  /// rethrows the first exception one of them raised (if one did). Chunks
  /// of concurrent ParallelFor calls are not waited for. Called from
  /// inside a pool task it drains the queue inline instead of blocking, so
  /// nested waits cannot deadlock.
  void Wait();

  /// \brief Splits [begin, end) into contiguous chunks and runs
  /// `body(chunk_begin, chunk_end)` across the pool; returns when all
  /// chunks are done. Safe to call with begin == end. The chunk layout
  /// depends on the worker count, so only use this when every index's
  /// result is independent of how the range is split (row-parallel kernels,
  /// scatter-free scans).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& body);

  /// \brief Granularity-aware ParallelFor: splits [begin, end) into chunks
  /// sized by `total_flops` (the caller's estimate of scalar mul-adds or
  /// equivalent work over the whole range) instead of by item count.
  /// Runs inline — no pool dispatch at all — when the total work is below
  /// the serial cutoff, and otherwise caps the chunk count so every chunk
  /// carries at least kMinFlopsPerChunk of work; tiny kernels stop paying
  /// fork/join overhead and medium kernels stop shattering into
  /// cache-cold slivers. Same safety contract as ParallelFor: the chunk
  /// layout may depend on the worker count, so only use it when every
  /// index's result is independent of how the range is split.
  void ParallelForWork(size_t begin, size_t end, size_t total_flops,
                       const std::function<void(size_t, size_t)>& body);

  /// \brief Work below this many flops runs inline on the caller: a pool
  /// dispatch (submit + wait over a mutex/condvar) costs tens of
  /// microseconds, which dwarfs a tiny per-step kernel.
  static constexpr size_t kSerialFlopCutoff = size_t{1} << 16;

  /// \brief Minimum work per chunk once ParallelForWork does go parallel.
  static constexpr size_t kMinFlopsPerChunk = size_t{1} << 15;

  /// \brief Deterministic variant: splits [begin, end) into at most
  /// `num_chunks` contiguous chunks whose layout depends ONLY on the range
  /// size and `num_chunks`, never on the worker count, and runs
  /// `body(chunk_index, chunk_begin, chunk_end)` across the pool.
  ///
  /// This is the reduction primitive: callers keep one partial accumulator
  /// per chunk index and merge them in ascending chunk order after the
  /// call, which makes floating-point reductions bitwise reproducible for
  /// any thread count (a 1-thread pool executes the same chunks in the
  /// same ascending order inline).
  void ParallelForChunks(
      size_t begin, size_t end, size_t num_chunks,
      const std::function<void(size_t, size_t, size_t)>& body);

 private:
  // Completion state of one set of tasks: each ParallelFor call owns one
  // on its stack, and bare Submit() tasks share `submitted_`. Its fields
  // are guarded by the pool's mu_.
  struct TaskGroup {
    size_t pending = 0;
    std::exception_ptr first_error;
    CondVar done;
  };

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void WorkerLoop();
  bool OnWorkerThread() const;
  // Runs `task` and retires it from its group, recording its exception.
  void RunTask(Task task);
  // Runs `chunk(c)` for every c in [0, num_chunks) and returns when all
  // are done, rethrowing the first exception one of them raised. The
  // calling thread and up to min(num_chunks - 1, workers) claimer tasks
  // take chunk indices from one counter.
  void RunChunks(size_t num_chunks, const std::function<void(size_t)>& chunk);

  // Immutable after the constructor returns (workers are joined in the
  // destructor only); everything mutable below names its lock.
  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar task_ready_;
  std::deque<Task> tasks_ HIGNN_GUARDED_BY(mu_);
  TaskGroup submitted_ HIGNN_GUARDED_BY(mu_);
  bool shutdown_ HIGNN_GUARDED_BY(mu_) = false;
};

/// \brief Process-wide default pool (lazily created, never destroyed).
ThreadPool& GlobalThreadPool();

/// \brief Replaces the process-wide pool with one of `num_threads` workers
/// (0 = hardware concurrency, 1 = fully inline execution). No-op when the
/// pool already has that size. Not thread-safe: call between parallel
/// phases, never while tasks are in flight. This is how
/// `HignnConfig::num_threads` / the CLI `--threads` flag reach the kernels.
void SetGlobalThreadPoolThreads(size_t num_threads);

}  // namespace hignn

#endif  // HIGNN_UTIL_THREAD_POOL_H_
