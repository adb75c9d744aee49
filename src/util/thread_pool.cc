#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace hignn {

namespace {

// Worker threads mark which pool they belong to so nested ParallelFor
// calls from inside a task can detect reentrancy and run inline instead
// of blocking on their own completion.
thread_local const ThreadPool* current_worker_pool = nullptr;

// Number of non-empty `chunk_size` chunks covering n items.
size_t ChunkCount(size_t n, size_t chunk_size) {
  return (n + chunk_size - 1) / chunk_size;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads == 1) return;  // Inline mode: no worker threads.
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::OnWorkerThread() const {
  return current_worker_pool == this;
}

void ThreadPool::RunTask(Task task) {
  task.fn();  // a claimer records its chunks' exceptions itself
  task.fn = nullptr;  // drop the closure before its group can retire
  MutexLock lock(mu_);
  TaskGroup& group = *task.group;
  HIGNN_CHECK_GT(group.pending, 0u);
  // Notified under the lock: a ParallelFor group lives on its caller's
  // stack and is gone as soon as the caller sees pending == 0.
  if (--group.pending == 0) group.done.NotifyAll();
}

void ThreadPool::RunChunks(size_t num_chunks,
                           const std::function<void(size_t)>& chunk) {
  TaskGroup group;
  std::atomic<size_t> next_chunk{0};
  // Claims chunk indices until none are left. A chunk's exception is
  // recorded and the claimer moves on, so every chunk still runs once.
  const auto drain = [&] {
    for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks;
         c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      try {
        chunk(c);
      } catch (...) {
        MutexLock lock(mu_);
        if (!group.first_error) group.first_error = std::current_exception();
      }
    }
  };
  // The caller claims chunks too, so one claimer fewer than chunks already
  // gives every chunk a thread.
  const size_t claimers = std::min(num_chunks - 1, threads_.size());
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < claimers; ++i) {
      tasks_.push_back(Task{[&drain] { drain(); }, &group});
    }
    group.pending = claimers;
  }
  for (size_t i = 0; i < claimers; ++i) task_ready_.NotifyOne();
  drain();
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    // Every chunk is claimed. A claimer no worker has started would find
    // nothing left, so retire it instead of waiting for a free worker.
    group.pending -= std::erase_if(
        tasks_, [&group](const Task& task) { return task.group == &group; });
    while (group.pending != 0) group.done.Wait(lock);
    error = group.first_error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t workers = num_threads();
  if (workers == 1 || n == 1 || OnWorkerThread()) {
    body(begin, end);
    return;
  }
  const size_t chunks = std::min(n, workers * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  RunChunks(ChunkCount(n, chunk_size), [&](size_t c) {
    const size_t lo = begin + c * chunk_size;
    body(lo, std::min(end, lo + chunk_size));
  });
}

void ThreadPool::ParallelForWork(
    size_t begin, size_t end, size_t total_flops,
    const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t workers = num_threads();
  if (total_flops < kSerialFlopCutoff || workers == 1 || n == 1 ||
      OnWorkerThread()) {
    // Counter lookups resolve once; MetricsRegistry guarantees stable
    // addresses, and Counter::Add is a no-op while metrics are disabled.
    static obs::Counter& serial =
        obs::MetricsRegistry::Global().GetCounter("pool.serial_fallback");
    serial.Add(1);
    body(begin, end);
    return;
  }
  static obs::Counter& dispatched =
      obs::MetricsRegistry::Global().GetCounter("pool.parallel_dispatch");
  dispatched.Add(1);
  const size_t max_chunks = std::min(n, workers * 4);
  const size_t by_work = std::max<size_t>(1, total_flops / kMinFlopsPerChunk);
  const size_t chunks = std::min(max_chunks, by_work);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  RunChunks(ChunkCount(n, chunk_size), [&](size_t c) {
    const size_t lo = begin + c * chunk_size;
    body(lo, std::min(end, lo + chunk_size));
  });
}

void ThreadPool::ParallelForChunks(
    size_t begin, size_t end, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (begin >= end || num_chunks == 0) return;
  const size_t n = end - begin;
  // Chunk layout is a pure function of (n, num_chunks) — never of the
  // worker count — so per-chunk partial reductions merge identically no
  // matter how many threads execute them.
  const size_t chunks = std::min(n, num_chunks);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  const auto run = [&](size_t c) {
    const size_t lo = begin + c * chunk_size;
    body(c, lo, std::min(end, lo + chunk_size));
  };
  const size_t used = ChunkCount(n, chunk_size);
  if (num_threads() == 1 || used == 1 || OnWorkerThread()) {
    for (size_t c = 0; c < used; ++c) run(c);
    return;
  }
  RunChunks(used, run);
}

void ThreadPool::ForkJoin(const std::function<void()>& side,
                          const std::function<void()>& main) {
  if (threads_.empty() || OnWorkerThread()) {
    main();
    side();
    return;
  }
  TaskGroup group;
  const auto run_side = [&] {
    try {
      side();
    } catch (...) {
      MutexLock lock(mu_);
      group.first_error = std::current_exception();
    }
  };
  {
    MutexLock lock(mu_);
    tasks_.push_back(Task{[&run_side] { run_side(); }, &group});
    group.pending = 1;
  }
  task_ready_.NotifyOne();
  std::exception_ptr main_error;
  try {
    main();
  } catch (...) {
    main_error = std::current_exception();
  }
  bool unstarted = false;
  {
    MutexLock lock(mu_);
    // A side task no worker has taken yet is the caller's to run.
    unstarted = std::erase_if(tasks_, [&group](const Task& task) {
                  return task.group == &group;
                }) > 0;
    if (unstarted) group.pending = 0;
    while (group.pending != 0) group.done.Wait(lock);
  }
  if (unstarted) run_side();
  std::exception_ptr side_error;
  {
    MutexLock lock(mu_);
    side_error = group.first_error;
  }
  if (main_error) std::rethrow_exception(main_error);
  if (side_error) std::rethrow_exception(side_error);
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && tasks_.empty()) task_ready_.Wait(lock);
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(std::move(task));
  }
}

namespace {

ThreadPool*& GlobalPoolSlot() {
  // Never destroyed: avoids shutdown-order issues with static destructors.
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace

ThreadPool& GlobalThreadPool() { return *GlobalPoolSlot(); }

void SetGlobalThreadPoolThreads(size_t num_threads) {
  const size_t target =
      num_threads == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : num_threads;
  ThreadPool*& slot = GlobalPoolSlot();
  if (slot->num_threads() == target) return;
  ThreadPool* replacement = new ThreadPool(target);
  std::swap(slot, replacement);
  delete replacement;  // Joins the old workers; queue is empty by contract.
}

}  // namespace hignn
