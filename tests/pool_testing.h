#ifndef HIGNN_TESTS_POOL_TESTING_H_
#define HIGNN_TESTS_POOL_TESTING_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace hignn {

// Row count at which `work_per_row` flops a row (k*n for an m x k x n
// GEMM, the column count for a transpose) exceed the pool's serial
// cutoff, so a kernel of that size fans out on a multi-thread pool. The
// odd excess leaves a ragged last chunk.
inline size_t RowsAboveSerialCutoff(size_t work_per_row) {
  return ThreadPool::kSerialFlopCutoff / work_per_row + 37;
}

// Counts ParallelForWork calls that fan out (the pool.parallel_dispatch
// counter) from construction on, with metrics collection on for its
// lifetime. A 1-vs-N-thread determinism test asserts the count grew
// during its N-thread run, so a later cutoff change cannot make both runs
// serial unnoticed.
class ParallelDispatchCount {
 public:
  ParallelDispatchCount()
      : was_enabled_(obs::Enabled()),
        counter_(obs::MetricsRegistry::Global().GetCounter(
            "pool.parallel_dispatch")),
        start_(counter_.value()) {
    obs::SetEnabled(true);
  }
  ~ParallelDispatchCount() { obs::SetEnabled(was_enabled_); }

  ParallelDispatchCount(const ParallelDispatchCount&) = delete;
  ParallelDispatchCount& operator=(const ParallelDispatchCount&) = delete;

  int64_t value() const { return counter_.value() - start_; }

 private:
  bool was_enabled_;
  const obs::Counter& counter_;
  int64_t start_;
};

}  // namespace hignn

#endif  // HIGNN_TESTS_POOL_TESTING_H_
