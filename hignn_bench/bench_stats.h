#ifndef HIGNN_BENCH_BENCH_STATS_H_
#define HIGNN_BENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace hignn::bench {

/// \brief Exact order statistics of a raw sample.
///
/// Every percentile is the nearest-rank order statistic: the smallest
/// sample with at least p * n samples at or below it. No buckets, no
/// interpolation — a reported p50 is a latency some request actually
/// had, and `n` says how much data backs each percentile (p99 of 50
/// samples is just the maximum).
struct Summary {
  int64_t n = 0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// \brief Nearest-rank percentile of an ascending-sorted sample; `p` in
/// [0, 1]. Zero for an empty sample.
inline double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p25 = SortedPercentile(samples, 0.25);
  s.median = SortedPercentile(samples, 0.50);
  s.p75 = SortedPercentile(samples, 0.75);
  s.p99 = SortedPercentile(samples, 0.99);
  s.p999 = SortedPercentile(samples, 0.999);
  return s;
}

inline double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).median;
}

}  // namespace hignn::bench

#endif  // HIGNN_BENCH_BENCH_STATS_H_
