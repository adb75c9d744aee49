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
/// analogue used by the MatMul kernels, K-means, graph coarsening and the
/// SAGE trainer, which draws its next minibatch on a worker (ForkJoin)
/// while the calling thread computes the current one. On a single-core
/// host it degrades gracefully to inline execution (num_threads == 1 runs
/// tasks on the calling thread).
///
/// Reentrancy: every call made from inside a pool task runs its work
/// inline on the calling worker instead of blocking, so nested parallel
/// kernels cannot deadlock.
///
/// Completion is per call: every ParallelFor / ParallelForWork /
/// ParallelForChunks / ForkJoin call tracks its own tasks and returns as
/// soon as those are done, so concurrent external callers (serving
/// handler threads) share the workers without waiting on each other's
/// work. The calling thread runs work too: it and the workers claim chunk
/// indices from one counter, and it runs a ForkJoin side task no worker
/// has started, so a call completes even while every worker is busy.
///
/// Exceptions: a task that throws does not kill the worker. Its exception
/// is rethrown from the call that submitted it, and only from that one.
class ThreadPool {
 public:
  /// \brief Creates a pool with `num_threads` workers (0 means
  /// hardware_concurrency, at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

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

  /// \brief Work below this many flops (m*k*n for a GEMM) runs inline on
  /// the caller. A dispatch must wake parked workers: an empty 4-chunk
  /// call takes 5 us at p50 and 20 us at p90 on a 4-vCPU KVM guest, while
  /// the serial GEMM tile does one m*k*n flop in ~15 ps. So a split GEMM
  /// (about T/4 plus the wake-up) beats the serial one (T) only from
  /// about 2^21 flops, which is where SAGE-shaped GEMMs measured at 1 and
  /// 4 threads cross over (DESIGN.md, "Kernel architecture"). A caller
  /// whose unit of work costs more states it in tile flops (k-means'
  /// center grouping counts a distance term as 10).
  static constexpr size_t kSerialFlopCutoff = size_t{1} << 21;

  /// \brief Minimum work per chunk once ParallelForWork does go parallel.
  /// Above the cutoff the cap of 4 chunks per worker binds first on a
  /// small host; the floor matters on hosts with more than 16 workers.
  /// Finer chunks measured no slower than coarser ones, because the
  /// caller and the first workers awake claim the chunks of late ones.
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

  /// \brief Runs `side` on one worker while the calling thread runs
  /// `main`, and returns when both are done. `main` always runs on the
  /// calling thread, so what it allocates comes from the caller's malloc
  /// arena. If no worker has started `side` by the time `main` returns,
  /// the caller runs it. A 1-thread pool, or a call from inside a pool
  /// task, runs `main` and then `side` inline. Each runs exactly once;
  /// `main`'s exception is rethrown first, then `side`'s.
  void ForkJoin(const std::function<void()>& side,
                const std::function<void()>& main);

 private:
  // Completion state of one call's claimer tasks, owned on the caller's
  // stack. Its fields are guarded by the pool's mu_.
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
  // Runs `task` and retires it from its group.
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
