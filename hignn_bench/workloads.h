#ifndef HIGNN_BENCH_WORKLOADS_H_
#define HIGNN_BENCH_WORKLOADS_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "bench_stats.h"
#include "obs/trace.h"
#include "util/status.h"

namespace hignn::bench {

/// \brief One invocation of the benchmark binary.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer (traced) pass instead of end to end
  bool toy = false;       ///< tiny sizes for the smoke test only
  std::string cache_dir = "build/bench_cache";
};

/// Load-generator and Fit thread budget: min(4, nproc).
inline int32_t BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int32_t>(std::clamp(hw, 1u, 4u));
}

/// \brief Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// \brief Keeps a probe's result observable so the timed call is not
/// optimized away.
inline volatile double g_consumed = 0.0;
inline void Consume(double value) { g_consumed = value; }

/// \brief Per-call time of `fn` in microseconds over `samples` samples.
/// Each sample times a block of back-to-back calls sized to last at
/// least `min_sample_us`, so calls far shorter than the clock's 1 us
/// resolution still measure; one untimed call warms up first.
template <typename Fn>
Summary TimePerCallUs(int32_t samples, Fn&& fn, int64_t min_sample_us = 2000) {
  obs::Stopwatch warm;
  fn();
  const double first_us = std::max(1.0, warm.Micros());
  const int64_t block = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(min_sample_us / first_us)));
  std::vector<double> per_call;
  for (int32_t s = 0; s < samples; ++s) {
    obs::Stopwatch timer;
    for (int64_t b = 0; b < block; ++b) fn();
    per_call.push_back(timer.Micros() / static_cast<double>(block));
  }
  return Summarize(std::move(per_call));
}

// Fit workloads (fit_bench.cc): fit-small, fit-large.
bool IsFitWorkload(const std::string& workload);
Status PrepareFitFixture(const RunOptions& options,
                         const std::string& workload);
/// \brief End-to-end run: repeated Hignn::Fit on the workload's graph.
void RunFitWorkload(const RunOptions& options, Report& report);
/// \brief Traced per-layer pass of Algorithm 1 on `workload`'s graph,
/// plus the graph/nn/cluster probes and the Sec. III-D exponents.
/// Sets obs.trace_overhead_frac only when `own_workload` is true.
void RunFitLayers(const RunOptions& options, const std::string& workload,
                  bool own_workload, SpanLog& spans, Report& report);

// Serve workloads (serve_bench.cc): serve-score, serve-topk.
bool IsServeWorkload(const std::string& workload);
Status PrepareServeFixture(const RunOptions& options);
/// \brief End-to-end run: closed-loop TCP load against the scoring server.
void RunServeWorkload(const RunOptions& options, Report& report);
/// \brief Per-layer probes of the wire, server, batcher, engine, index
/// and store at the serve store. Sets obs.trace_overhead_frac only when
/// `own_workload` is true.
void RunServeLayers(const RunOptions& options, bool own_workload,
                    SpanLog& spans, Report& report);

}  // namespace hignn::bench

#endif  // HIGNN_BENCH_WORKLOADS_H_
