#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ranges>

#include "nn/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Parallel reductions split the range into a chunk count derived only from
// the workload (never the thread count) and merge per-chunk partials in
// ascending chunk order, so inertia / shift / D^2 totals are bitwise
// reproducible for a given seed at any num_threads setting.
constexpr size_t kReduceChunks = 64;

// Workloads below this many distance-term flops stay inline: pool dispatch
// costs more than the arithmetic.
constexpr size_t kParallelWorkCutoff = size_t{1} << 16;

// Filtered assignment (AssignToNearestCenters): points per block, whose
// GemmBlock row tiles share each center panel while it is cache-resident,
// and centers per panel (the panel width MatMul uses).
constexpr size_t kPointBlock = 16;
constexpr size_t kCenterPanel = 256;

// Limits of the filter's exactness argument (kmeans.h): beyond this
// dimension the 1e-12 slack no longer covers the exact kernel's rounding,
// and beyond this ||x|| * max ||c|| a float dot product could overflow.
constexpr size_t kMaxFilterDim = 1024;
constexpr double kMaxFilterNormProduct = 1e37;

size_t ReduceChunksFor(size_t work, size_t range) {
  if (work < kParallelWorkCutoff || range == 0) return 1;
  return std::min(range, kReduceChunks);
}

// Lane-strided double accumulation (nn/simd.h): bitwise identical on the
// scalar and vector paths, and still thread-count independent.
double SquaredDistance(const float* a, const float* b, size_t d) {
  return simd::SquaredDistance(a, b, d);
}

// Nearest center among the indices `ids` yields in ascending order: the
// first strict minimum of the exact distance, so the lowest index wins ties.
template <typename Ids>
std::pair<int32_t, double> NearestCenter(const Matrix& centers,
                                         const float* point, const Ids& ids) {
  int32_t best = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (const size_t c : ids) {
    const double dist = SquaredDistance(centers.row(c), point, centers.cols());
    if (dist < best_dist) {
      best_dist = dist;
      best = static_cast<int32_t>(c);
    }
  }
  return {best, best_dist};
}

std::pair<int32_t, double> NearestCenter(const Matrix& centers,
                                         const float* point) {
  return NearestCenter(centers, point,
                       std::views::iota(size_t{0}, centers.rows()));
}

Matrix InitCenters(const Matrix& points, int32_t k, bool kmeanspp, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  Matrix centers(static_cast<size_t>(k), d);

  if (!kmeanspp) {
    // Distinct random rows via partial shuffle of indices.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    rng.Shuffle(idx);
    for (int32_t c = 0; c < k; ++c) {
      const float* src = points.row(idx[static_cast<size_t>(c)]);
      float* dst = centers.row(static_cast<size_t>(c));
      std::copy(src, src + d, dst);
    }
    return centers;
  }

  // k-means++: first center uniform, then D^2 weighting.
  {
    const size_t first = rng.UniformInt(n);
    const float* src = points.row(first);
    std::copy(src, src + d, centers.row(0));
  }
  // min_dist[i] is point i's D^2, measured to chosen center nearest[i]
  // (-1 while no finite distance has been seen).
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  std::vector<int32_t> nearest(n, -1);
  // gap[j]: squared distance from the newest center to chosen center j.
  std::vector<double> gap(static_cast<size_t>(k));
  // A point's update is a proven no-op when gap[nearest] > skip * min_dist:
  // then ||c_new - c_near|| > 2 ||x - c_near||, so by the triangle
  // inequality c_new is farther from x than c_near. The 1e-9 margin in
  // `skip` exceeds the relative rounding of the computed squared distances
  // ((d + 6) 2^-53 each) below 2^20 dimensions, so the computed new
  // distance is >= min_dist and std::min would keep min_dist: totals and
  // picks stay bitwise identical. Beyond that nothing is skipped.
  const double skip = d < (size_t{1} << 20)
                          ? 4.0 * (1.0 + 1e-9)
                          : std::numeric_limits<double>::infinity();
  const size_t init_chunks = ReduceChunksFor(n * d, n);
  std::vector<double> partial(init_chunks);
  for (int32_t c = 1; c < k; ++c) {
    const auto newest = static_cast<size_t>(c - 1);
    const float* latest = centers.row(newest);
    for (size_t j = 0; j < newest; ++j) {
      gap[j] = SquaredDistance(latest, centers.row(j), d);
    }
    // The D^2 update is point-parallel; the total merges per-chunk sums in
    // ascending chunk order (see ParallelForChunks).
    std::fill(partial.begin(), partial.end(), 0.0);
    GlobalThreadPool().ParallelForChunks(
        0, n, init_chunks, [&](size_t chunk, size_t lo, size_t hi) {
          double local = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            const int32_t j = nearest[i];
            // Negated so that a NaN gap never skips.
            if (j < 0 || !(gap[static_cast<size_t>(j)] > skip * min_dist[i])) {
              const double dist = SquaredDistance(points.row(i), latest, d);
              if (dist < min_dist[i]) {
                min_dist[i] = dist;
                nearest[i] = c - 1;
              }
            }
            local += min_dist[i];
          }
          partial[chunk] = local;
        });
    double total = 0.0;
    for (double p : partial) total += p;
    size_t pick = n - 1;
    if (total > 0.0) {
      double target = rng.Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.UniformInt(n);  // All points identical.
    }
    const float* src = points.row(pick);
    std::copy(src, src + d, centers.row(static_cast<size_t>(c)));
  }
  return centers;
}

// Repairs empty clusters by stealing the farthest point from the most
// populated cluster, keeping every cluster id used (downstream coarsening
// tolerates empty clusters but quality suffers). Sequential on purpose:
// results must not depend on the thread count. Returns the number of
// clusters reseeded.
int32_t RepairEmptyClusters(const Matrix& points, Matrix& centers,
                            std::vector<int32_t>& assignment, int32_t k) {
  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  for (int32_t a : assignment) ++counts[static_cast<size_t>(a)];
  int32_t reseeds = 0;
  for (int32_t c = 0; c < k; ++c) {
    if (counts[static_cast<size_t>(c)] > 0) continue;
    // Farthest point from its own center, in the largest cluster.
    int32_t donor = static_cast<int32_t>(std::distance(
        counts.begin(), std::max_element(counts.begin(), counts.end())));
    double best_dist = -1.0;
    size_t best_point = 0;
    for (size_t i = 0; i < points.rows(); ++i) {
      if (assignment[i] != donor) continue;
      const double dist = SquaredDistance(
          points.row(i), centers.row(static_cast<size_t>(donor)),
          points.cols());
      if (dist > best_dist) {
        best_dist = dist;
        best_point = i;
      }
    }
    if (best_dist < 0.0) continue;  // Degenerate: nothing to steal.
    assignment[best_point] = c;
    const float* src = points.row(best_point);
    std::copy(src, src + points.cols(), centers.row(static_cast<size_t>(c)));
    --counts[static_cast<size_t>(donor)];
    ++counts[static_cast<size_t>(c)];
    ++reseeds;
  }
  return reseeds;
}

KMeansResult RunLloyd(const Matrix& points, const KMeansConfig& config,
                      int32_t k, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  KMeansResult result;
  result.centers = InitCenters(points, k, config.kmeanspp_init, rng);
  result.assignment.assign(n, 0);

  Matrix sums(static_cast<size_t>(k), d);
  std::vector<int64_t> counts(static_cast<size_t>(k));
  // Assignment-churn tracking is observation-only: the previous-iteration
  // copy exists solely to feed the gauge, so it is skipped entirely under
  // --obs-off (bitwise parity holds either way — churn never feeds the
  // update math).
  const bool track_churn = obs::Enabled();
  std::vector<int32_t> prev_assignment;
  for (int32_t iter = 0; iter < config.max_iters; ++iter) {
    result.iterations = iter + 1;
    if (track_churn && iter > 0) prev_assignment = result.assignment;
    result.inertia =
        AssignToNearestCenters(points, result.centers, &result.assignment);
    if (track_churn && iter > 0 && n > 0) {
      size_t changed = 0;
      for (size_t i = 0; i < n; ++i) {
        if (result.assignment[i] != prev_assignment[i]) ++changed;
      }
      obs::GaugeSet("kmeans.assignment_churn",
                    static_cast<double>(changed) / static_cast<double>(n));
    }

    sums.Fill(0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    // Cluster-ownership scan: each chunk owns a contiguous cluster range
    // and accumulates its clusters' points in ascending point order — the
    // same per-cluster order as a sequential point-major loop, so the sums
    // are bitwise identical at any thread count. Costs one extra
    // assignment read per point per chunk, negligible next to the O(n*d)
    // adds it parallelizes.
    auto accumulate_clusters = [&](size_t clo, size_t chi) {
      for (size_t i = 0; i < n; ++i) {
        const auto a = static_cast<size_t>(result.assignment[i]);
        if (a < clo || a >= chi) continue;
        float* dst = sums.row(a);
        const float* src = points.row(i);
        for (size_t c = 0; c < d; ++c) dst[c] += src[c];
        ++counts[a];
      }
    };
    if (n * d >= kParallelWorkCutoff &&
        GlobalThreadPool().num_threads() > 1) {
      GlobalThreadPool().ParallelFor(0, static_cast<size_t>(k),
                                     accumulate_clusters);
    } else {
      accumulate_clusters(0, static_cast<size_t>(k));
    }
    const size_t shift_chunks =
        ReduceChunksFor(static_cast<size_t>(k) * d, static_cast<size_t>(k));
    std::vector<double> shift_partial(shift_chunks, 0.0);
    GlobalThreadPool().ParallelForChunks(
        0, static_cast<size_t>(k), shift_chunks,
        [&](size_t chunk, size_t clo, size_t chi) {
          double local = 0.0;
          for (size_t c = clo; c < chi; ++c) {
            if (counts[c] == 0) continue;
            const float inv = 1.0f / static_cast<float>(counts[c]);
            float* center = result.centers.row(c);
            const float* sum = sums.row(c);
            for (size_t col = 0; col < d; ++col) {
              const float updated = sum[col] * inv;
              const double delta = static_cast<double>(updated) - center[col];
              local += delta * delta;
              center[col] = updated;
            }
          }
          shift_partial[chunk] = local;
        });
    double shift = 0.0;
    for (double p : shift_partial) shift += p;

    // Reseed clusters that lost every point this iteration. Without this
    // the `counts[c] == 0` branch above silently carries the stale center
    // through all remaining iterations. Deterministic and sequential (the
    // farthest point overall from its assigned center, ascending scan with
    // strict >), so results stay thread-count independent.
    int32_t iter_reseeds = 0;
    for (int32_t c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] != 0) continue;
      double best_dist = -1.0;
      size_t best_point = 0;
      for (size_t i = 0; i < n; ++i) {
        const double dist = SquaredDistance(
            points.row(i),
            result.centers.row(static_cast<size_t>(result.assignment[i])), d);
        if (dist > best_dist) {
          best_dist = dist;
          best_point = i;
        }
      }
      if (best_dist <= 0.0) break;  // All points sit on their centers.
      const float* src = points.row(best_point);
      std::copy(src, src + d, result.centers.row(static_cast<size_t>(c)));
      // Claim the point so a second empty cluster picks a different one.
      counts[static_cast<size_t>(
          result.assignment[best_point])] -= 1;
      result.assignment[best_point] = c;
      counts[static_cast<size_t>(c)] = 1;
      ++iter_reseeds;
    }
    result.reseeds += iter_reseeds;

    // A reseed moved a center by definition; don't let a small shift total
    // declare convergence on the same iteration.
    if (iter_reseeds == 0 && shift < config.tol) break;
  }
  result.inertia =
      AssignToNearestCenters(points, result.centers, &result.assignment);
  result.reseeds +=
      RepairEmptyClusters(points, result.centers, result.assignment, k);
  return result;
}

KMeansResult RunMiniBatch(const Matrix& points, const KMeansConfig& config,
                          int32_t k, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  KMeansResult result;
  result.centers = InitCenters(points, k, config.kmeanspp_init, rng);

  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  for (int32_t step = 0; step < config.minibatch_steps; ++step) {
    result.iterations = step + 1;
    const size_t batch =
        std::min<size_t>(static_cast<size_t>(config.batch_size), n);
    for (size_t b = 0; b < batch; ++b) {
      const size_t i = rng.UniformInt(n);
      auto [best, dist] = NearestCenter(result.centers, points.row(i));
      (void)dist;
      ++counts[static_cast<size_t>(best)];
      const float eta = 1.0f / static_cast<float>(counts[static_cast<size_t>(best)]);
      float* center = result.centers.row(static_cast<size_t>(best));
      const float* src = points.row(i);
      for (size_t c = 0; c < d; ++c) {
        center[c] += eta * (src[c] - center[c]);
      }
    }
  }
  result.inertia =
      AssignToNearestCenters(points, result.centers, &result.assignment);
  result.reseeds +=
      RepairEmptyClusters(points, result.centers, result.assignment, k);
  return result;
}

// Single streaming pass: each point updates its nearest center with a
// 1/count learning rate — O(n*k), the complexity quoted in Sec. III-D.
KMeansResult RunSinglePass(const Matrix& points, const KMeansConfig& config,
                           int32_t k, Rng& rng) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  KMeansResult result;
  result.centers = InitCenters(points, k, config.kmeanspp_init, rng);
  result.iterations = 1;

  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  // Stream the points in a random order to reduce order bias.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  for (size_t i : order) {
    auto [best, dist] = NearestCenter(result.centers, points.row(i));
    (void)dist;
    ++counts[static_cast<size_t>(best)];
    const float eta = 1.0f / static_cast<float>(counts[static_cast<size_t>(best)]);
    float* center = result.centers.row(static_cast<size_t>(best));
    const float* src = points.row(i);
    for (size_t c = 0; c < d; ++c) center[c] += eta * (src[c] - center[c]);
  }
  result.inertia =
      AssignToNearestCenters(points, result.centers, &result.assignment);
  result.reseeds +=
      RepairEmptyClusters(points, result.centers, result.assignment, k);
  return result;
}

}  // namespace

double AssignToNearestCenters(const Matrix& points, const Matrix& centers,
                              std::vector<int32_t>* assignment) {
  HIGNN_CHECK_GT(centers.rows(), 0u);
  HIGNN_CHECK_EQ(points.cols(), centers.cols());
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = centers.rows();
  assignment->resize(n);

  const Matrix panel = Transpose(centers);  // d x k, GemmBlock's B operand
  std::vector<double> norms(k);             // ||c||^2
  double max_norm2 = 0.0;
  bool filterable = d <= kMaxFilterDim;
  for (size_t c = 0; c < k; ++c) {
    norms[c] = simd::Dot(centers.row(c), centers.row(c), d);
    filterable = filterable && std::isfinite(norms[c]);
    max_norm2 = std::max(max_norm2, norms[c]);
  }
  const double max_norm = std::sqrt(max_norm2);
  const double unit_d = static_cast<double>(d) * 0x1p-24;
  const double gamma = unit_d / (1.0 - unit_d);
  const double underflow = static_cast<double>(d) * 0x1p-148;

  const size_t chunks = ReduceChunksFor(n * k * d, n);
  std::vector<double> partial(chunks, 0.0);
  std::vector<size_t> measured(chunks, 0);
  GlobalThreadPool().ParallelForChunks(
      0, n, chunks, [&](size_t chunk, size_t lo, size_t hi) {
        std::vector<float> dots(std::min(kPointBlock, hi - lo) * k);
        std::vector<size_t> candidates;
        double local = 0.0;
        size_t local_measured = 0;
        for (size_t i0 = lo; i0 < hi; i0 += kPointBlock) {
          const size_t rows = std::min(kPointBlock, hi - i0);
          std::fill_n(dots.begin(), rows * k, 0.0f);
          for (size_t j0 = 0; j0 < k; j0 += kCenterPanel) {
            const size_t jw = std::min(kCenterPanel, k - j0);
            for (size_t r = 0; r < rows; r += simd::kGemmRowTile) {
              simd::GemmBlock(std::min(simd::kGemmRowTile, rows - r), d, jw,
                              points.row(i0 + r), d, panel.data() + j0, k,
                              dots.data() + r * k + j0, k);
            }
          }
          for (size_t r = 0; r < rows; ++r) {
            const float* x = points.row(i0 + r);
            const float* dot = dots.data() + r * k;
            const double xx = simd::Dot(x, x, d);
            const double x_norm = std::sqrt(xx);
            std::pair<int32_t, double> nearest;
            if (filterable && std::isfinite(xx) &&
                x_norm * max_norm < kMaxFilterNormProduct) {
              const double window =
                  2.0 * (2.02 * gamma * x_norm * max_norm +
                         1e-12 * (xx + max_norm2) + underflow);
              const auto approx = [&](size_t c) {
                return norms[c] - 2.0 * static_cast<double>(dot[c]);
              };
              // One pass keeps every center within `window` of the running
              // minimum; the minimum only falls, so that is a superset of
              // the centers within `window` of the final one.
              candidates.clear();
              double lowest = std::numeric_limits<double>::infinity();
              for (size_t c = 0; c < k; ++c) {
                const double a = approx(c);
                if (a <= lowest + window) {
                  candidates.push_back(c);
                  lowest = std::min(lowest, a);
                }
              }
              std::erase_if(candidates, [&](size_t c) {
                return approx(c) > lowest + window;
              });
              nearest = NearestCenter(centers, x, candidates);
              local_measured += candidates.size();
            } else {
              nearest = NearestCenter(centers, x);
              local_measured += k;
            }
            (*assignment)[i0 + r] = nearest.first;
            local += nearest.second;
          }
        }
        partial[chunk] = local;
        measured[chunk] = local_measured;
      });
  double inertia = 0.0;
  for (double p : partial) inertia += p;
  if (n > 0) {
    size_t total = 0;
    for (size_t m : measured) total += m;
    obs::GaugeSet("kmeans.exact_per_point",
                  static_cast<double>(total) / static_cast<double>(n));
  }
  return inertia;
}

Result<KMeansResult> RunKMeans(const Matrix& points,
                               const KMeansConfig& config) {
  if (points.rows() == 0 || points.cols() == 0) {
    return Status::InvalidArgument("RunKMeans: empty point matrix");
  }
  if (config.k <= 0) {
    return Status::InvalidArgument("RunKMeans: k must be positive");
  }
  const int32_t k =
      std::min<int32_t>(config.k, static_cast<int32_t>(points.rows()));
  const char* span_name = "kmeans.lloyd";
  switch (config.algorithm) {
    case KMeansAlgorithm::kLloyd:
      span_name = "kmeans.lloyd";
      break;
    case KMeansAlgorithm::kMiniBatch:
      span_name = "kmeans.minibatch";
      break;
    case KMeansAlgorithm::kSinglePass:
      span_name = "kmeans.single_pass";
      break;
  }
  obs::SpanGuard span(
      span_name,
      {{"k", k}, {"n", static_cast<int64_t>(points.rows())}});
  Rng rng(config.seed);
  Result<KMeansResult> result = Status::Internal("unknown kmeans algorithm");
  switch (config.algorithm) {
    case KMeansAlgorithm::kLloyd:
      result = RunLloyd(points, config, k, rng);
      break;
    case KMeansAlgorithm::kMiniBatch:
      result = RunMiniBatch(points, config, k, rng);
      break;
    case KMeansAlgorithm::kSinglePass:
      result = RunSinglePass(points, config, k, rng);
      break;
  }
  if (result.ok()) {
    obs::CounterAdd("kmeans.runs");
    obs::CounterAdd("kmeans.iterations", result.value().iterations);
    obs::CounterAdd("kmeans.reseeds", result.value().reseeds);
  }
  if (result.ok() && result.value().reseeds > 0) {
    HIGNN_LOG(kDebug) << StrFormat(
        "kmeans: reseeded %d empty cluster(s) of k=%d over %d iteration(s)",
        result.value().reseeds, k, result.value().iterations);
  }
  return result;
}

double CalinskiHarabaszIndex(const Matrix& points,
                             const std::vector<int32_t>& assignment,
                             int32_t k) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  if (k < 2 || static_cast<size_t>(k) >= n || assignment.size() != n) {
    return 0.0;
  }

  std::vector<double> mean(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* row = points.row(i);
    for (size_t c = 0; c < d; ++c) mean[c] += row[c];
  }
  for (double& m : mean) m /= static_cast<double>(n);

  std::vector<std::vector<double>> centers(
      static_cast<size_t>(k), std::vector<double>(d, 0.0));
  std::vector<int64_t> counts(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < n; ++i) {
    const int32_t a = assignment[i];
    HIGNN_CHECK_GE(a, 0);
    HIGNN_CHECK_LT(a, k);
    const float* row = points.row(i);
    for (size_t c = 0; c < d; ++c) centers[static_cast<size_t>(a)][c] += row[c];
    ++counts[static_cast<size_t>(a)];
  }
  int32_t non_empty = 0;
  for (int32_t c = 0; c < k; ++c) {
    if (counts[static_cast<size_t>(c)] == 0) continue;
    ++non_empty;
    for (size_t col = 0; col < d; ++col) {
      centers[static_cast<size_t>(c)][col] /=
          static_cast<double>(counts[static_cast<size_t>(c)]);
    }
  }
  if (non_empty < 2) return 0.0;

  double between = 0.0;  // D_B(k): sum_c n_c * ||mu_c - mu||^2
  for (int32_t c = 0; c < k; ++c) {
    if (counts[static_cast<size_t>(c)] == 0) continue;
    double dist = 0.0;
    for (size_t col = 0; col < d; ++col) {
      const double diff = centers[static_cast<size_t>(c)][col] - mean[col];
      dist += diff * diff;
    }
    between += static_cast<double>(counts[static_cast<size_t>(c)]) * dist;
  }

  double within = 0.0;  // D_W(k): sum_i ||x_i - mu_{a(i)}||^2
  for (size_t i = 0; i < n; ++i) {
    const int32_t a = assignment[i];
    const float* row = points.row(i);
    for (size_t col = 0; col < d; ++col) {
      const double diff =
          static_cast<double>(row[col]) - centers[static_cast<size_t>(a)][col];
      within += diff * diff;
    }
  }
  if (within <= 0.0) return std::numeric_limits<double>::infinity();
  return (between / within) * (static_cast<double>(n - k) /
                               static_cast<double>(k - 1));
}

Result<KMeansResult> SelectKByCalinskiHarabasz(
    const Matrix& points, const std::vector<int32_t>& candidates,
    const KMeansConfig& base_config, int32_t* best_k) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate k values");
  }
  double best_ch = -1.0;
  Result<KMeansResult> best = Status::Internal("no candidate succeeded");
  int32_t chosen = candidates.front();
  for (int32_t k : candidates) {
    KMeansConfig config = base_config;
    config.k = k;
    auto result = RunKMeans(points, config);
    if (!result.ok()) continue;
    const double ch =
        CalinskiHarabaszIndex(points, result.value().assignment, k);
    if (ch > best_ch) {
      best_ch = ch;
      chosen = k;
      best = std::move(result);
    }
  }
  if (!best.ok()) return best.status();
  if (best_k != nullptr) *best_k = chosen;
  return best;
}

}  // namespace hignn
