#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

// Filtered assignment (AssignPass): points per block, whose GemmBlock row
// tiles share each center panel while it is cache-resident, and centers
// per panel (the panel width MatMul uses).
constexpr size_t kPointBlock = 16;
constexpr size_t kCenterPanel = 256;

// Limits of the filter's exactness argument (kmeans.h): beyond this
// dimension the 1e-12 slack no longer covers the exact kernel's rounding,
// and beyond this ||x|| * max ||c|| a float dot product could overflow.
constexpr size_t kMaxFilterDim = 1024;
constexpr double kMaxFilterNormProduct = 1e37;

// Drift-bounded Lloyd (kmeans.h): G = clamp(k / kCentersPerGroup, 1,
// kMaxGroups) center groups, found by kGroupingIters Lloyd iterations over
// the initial centers. Every bound carries kBoundSlack relative slack.
constexpr size_t kCentersPerGroup = 8;
constexpr size_t kMaxGroups = 64;
constexpr int kGroupingIters = 5;
constexpr double kBoundSlack = 1e-9;

// The grouping states its work to ThreadPool::ParallelForWork, whose
// cutoff counts GEMM tile flops, as distance terms times this factor: a
// double-accumulated squared-distance term takes ~0.15 ns against a tile
// flop's ~15 ps (DESIGN.md, "Kernel architecture").
constexpr size_t kGemmFlopsPerDistanceTerm = 10;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

// Keeps the (distance, index) minimum: with finite distances that is where
// the ascending scan's first strict minimum lands, in any visiting order.
bool Nearer(int32_t c, double dist, const std::pair<int32_t, double>& best) {
  return dist < best.second || (dist == best.second && c < best.first);
}

// A float no larger than v. Shrinking by 2^-23 before the round to nearest
// (which moves a normal float by at most 2^-24 relative) keeps it below v;
// v <= 2^-100 and NaN give 0 and v > 2^127 gives 2^127, both below v.
float FloatBelow(double v) {
  return v > 0x1p-100
             ? static_cast<float>(std::min(v, 0x1p127) * (1.0 - 0x1p-23))
             : 0.0f;
}

// The GEMM filter's error model (kmeans.h) for d-term float dot products.
struct DotErrors {
  explicit DotErrors(size_t d)
      : gamma(static_cast<double>(d) * 0x1p-24 /
              (1.0 - static_cast<double>(d) * 0x1p-24)),
        underflow(static_cast<double>(d) * 0x1p-148) {}

  // Twice the proven bound on how far ||c||^2 - 2 x.c, from float dots,
  // is from its exact value, for ||x||^2 = xx and ||c||^2 <= max_norm2.
  double Window(double xx, double max_norm2) const {
    return 2.0 * (2.02 * gamma * std::sqrt(xx) * std::sqrt(max_norm2) +
                  1e-12 * (xx + max_norm2) + underflow);
  }

  double gamma;
  double underflow;
};

// The smallest ||c||^2 - 2 x.c over positions [lo, hi), from the squared
// norms and float dots, in four independent chains so the comparisons
// overlap.
double MinApprox(const double* norms, const float* dot, size_t lo,
                 size_t hi) {
  double lowest[4] = {kInf, kInf, kInf, kInf};
  size_t j = lo;
  for (; j + 4 <= hi; j += 4) {
    for (size_t lane = 0; lane < 4; ++lane) {
      lowest[lane] =
          std::min(lowest[lane], norms[j + lane] -
                                     2.0 * static_cast<double>(dot[j + lane]));
    }
  }
  for (; j < hi; ++j) {
    lowest[0] =
        std::min(lowest[0], norms[j] - 2.0 * static_cast<double>(dot[j]));
  }
  return std::min(std::min(lowest[0], lowest[1]),
                  std::min(lowest[2], lowest[3]));
}

// A partition of the centers: group g holds the centers
// order[begin[g]] .. order[begin[g + 1] - 1], in ascending index order.
struct CenterGroups {
  std::vector<int32_t> order;
  std::vector<size_t> begin;
  std::vector<int32_t> group_of;  // per center index

  size_t size() const { return begin.size() - 1; }
};

// Groups the centers with a Lloyd over the centers themselves, seeded with
// the first `num_groups` of them (k-means++ spreads its first picks). The
// grouping only decides how much work the bounds save: every result is
// exact under any partition.
CenterGroups GroupCenters(const Matrix& centers, size_t num_groups) {
  const size_t k = centers.rows();
  const size_t d = centers.cols();
  CenterGroups groups;
  groups.group_of.assign(k, 0);
  if (num_groups > 1) {
    Matrix means(num_groups, d);
    std::copy_n(centers.data(), num_groups * d, means.data());
    std::vector<double> sums(num_groups * d);
    std::vector<int64_t> sizes(num_groups);
    for (int iter = 0;; ++iter) {
      const auto assign = [&](size_t lo, size_t hi) {
        for (size_t c = lo; c < hi; ++c) {
          groups.group_of[c] = NearestCenter(means, centers.row(c)).first;
        }
      };
      GlobalThreadPool().ParallelForWork(
          0, k, k * num_groups * d * kGemmFlopsPerDistanceTerm, assign);
      if (iter == kGroupingIters) break;
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(sizes.begin(), sizes.end(), 0);
      for (size_t c = 0; c < k; ++c) {
        const auto g = static_cast<size_t>(groups.group_of[c]);
        for (size_t col = 0; col < d; ++col) {
          sums[g * d + col] += centers(c, col);
        }
        ++sizes[g];
      }
      for (size_t g = 0; g < num_groups; ++g) {
        if (sizes[g] == 0) continue;
        for (size_t col = 0; col < d; ++col) {
          means(g, col) = static_cast<float>(
              sums[g * d + col] / static_cast<double>(sizes[g]));
        }
      }
    }
  }
  groups.begin.assign(num_groups + 1, 0);
  for (const int32_t g : groups.group_of) ++groups.begin[g + 1];
  std::partial_sum(groups.begin.begin(), groups.begin.end(),
                   groups.begin.begin());
  groups.order.resize(k);
  std::vector<size_t> next(groups.begin.begin(), groups.begin.end() - 1);
  for (size_t c = 0; c < k; ++c) {
    groups.order[next[static_cast<size_t>(groups.group_of[c])]++] =
        static_cast<int32_t>(c);
  }
  return groups;
}

// What the drift-bounded Lloyd keeps from one assignment pass to the next.
struct PassBounds {
  // lower[i * G + g] is at most the distance from point i to every center
  // of group g other than its own. Usable while `valid`.
  std::vector<float> lower;
  std::vector<double> norm2;  // ||x||^2 per point
  // Each center's drift, by position in the group order, and the positions
  // of each group again, by descending drift.
  std::vector<double> drift;
  std::vector<size_t> by_drift;
  bool valid = false;
};

// Each center's movement since `before`, rounded up by kBoundSlack (a
// non-finite one counts as infinite), and each group sorted by it.
void MeasureDrift(const CenterGroups& groups, const Matrix& before,
                  const Matrix& after, PassBounds* bounds) {
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t j = groups.begin[g]; j < groups.begin[g + 1]; ++j) {
      const auto c = static_cast<size_t>(groups.order[j]);
      const double drift = std::sqrt(SquaredDistance(
                               after.row(c), before.row(c), before.cols())) *
                           (1.0 + kBoundSlack);
      bounds->drift[j] = drift <= std::numeric_limits<double>::max() ? drift
                                                                      : kInf;
      bounds->by_drift[j] = j;
    }
    std::sort(bounds->by_drift.begin() + static_cast<ptrdiff_t>(groups.begin[g]),
              bounds->by_drift.begin() +
                  static_cast<ptrdiff_t>(groups.begin[g + 1]),
              [&](size_t a, size_t b) {
                return bounds->drift[a] > bounds->drift[b];
              });
  }
}

// One assignment pass (kmeans.h). Without usable bounds it runs the GEMM
// filter and, when `bounds` is given, fills them; with them it measures
// each point's own center and re-measures only what they cannot rule out.
// Points or centers the filter cannot take get the full scan.
double AssignPass(const Matrix& points, const Matrix& centers,
                  const CenterGroups& groups, PassBounds* bounds,
                  std::vector<int32_t>* assignment) {
  HIGNN_CHECK_GT(centers.rows(), 0u);
  HIGNN_CHECK_EQ(points.cols(), centers.cols());
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = centers.rows();
  const size_t num_groups = groups.size();
  assignment->resize(n);

  std::vector<double> norms(k);  // ||c||^2, in group order
  double max_norm2 = 0.0;
  bool filterable = d <= kMaxFilterDim;
  for (size_t j = 0; j < k; ++j) {
    const float* c = centers.row(static_cast<size_t>(groups.order[j]));
    norms[j] = simd::Dot(c, c, d);
    filterable = filterable && std::isfinite(norms[j]);
    max_norm2 = std::max(max_norm2, norms[j]);
  }
  const bool bounded = filterable && bounds != nullptr && bounds->valid;
  const bool gemm = filterable && !bounded;
  Matrix panel;  // d x k, GemmBlock's B operand, columns in group order
  if (gemm) {
    panel = Matrix(d, k);
    for (size_t j = 0; j < k; ++j) {
      const float* c = centers.row(static_cast<size_t>(groups.order[j]));
      for (size_t col = 0; col < d; ++col) panel(col, j) = c[col];
    }
  }
  const double max_norm = std::sqrt(max_norm2);
  const DotErrors errors(d);

  const size_t chunks = ReduceChunksFor(n * k * d, n);
  std::vector<double> partial(chunks, 0.0);
  std::vector<size_t> measured(chunks, 0);
  std::vector<size_t> rescanned(chunks, 0);
  GlobalThreadPool().ParallelForChunks(
      0, n, chunks, [&](size_t chunk, size_t lo, size_t hi) {
        std::vector<float> dots(gemm ? std::min(kPointBlock, hi - lo) * k : 0);
        std::vector<size_t> candidates;
        std::vector<double> group_min(num_groups);
        std::vector<std::pair<int32_t, double>> remeasured;
        double local = 0.0;
        size_t local_measured = 0;
        size_t local_rescanned = 0;
        for (size_t i0 = lo; i0 < hi; i0 += kPointBlock) {
          const size_t rows = std::min(kPointBlock, hi - i0);
          if (gemm) {
            std::fill_n(dots.begin(), rows * k, 0.0f);
            for (size_t j0 = 0; j0 < k; j0 += kCenterPanel) {
              const size_t jw = std::min(kCenterPanel, k - j0);
              for (size_t r = 0; r < rows; r += simd::kGemmRowTile) {
                simd::GemmBlock(std::min(simd::kGemmRowTile, rows - r), d, jw,
                                points.row(i0 + r), d, 1, panel.data() + j0,
                                k, dots.data() + r * k + j0, k);
              }
            }
          }
          for (size_t r = 0; r < rows; ++r) {
            const size_t i = i0 + r;
            const float* x = points.row(i);
            float* lower = bounds != nullptr
                               ? bounds->lower.data() + i * num_groups
                               : nullptr;
            const double xx = bounded ? bounds->norm2[i] : simd::Dot(x, x, d);
            if (gemm && bounds != nullptr) bounds->norm2[i] = xx;
            const double x_norm = std::sqrt(xx);
            std::pair<int32_t, double> nearest{0, kInf};
            if (!filterable || !std::isfinite(xx) ||
                !(x_norm * max_norm < kMaxFilterNormProduct)) {
              nearest = NearestCenter(centers, x);
              local_measured += k;
              local_rescanned += 1;
              if (lower != nullptr) std::fill_n(lower, num_groups, 0.0f);
            } else if (gemm) {
              const float* dot = dots.data() + r * k;
              const double window = errors.Window(xx, max_norm2);
              const auto approx = [&](size_t j) {
                return norms[j] - 2.0 * static_cast<double>(dot[j]);
              };
              // Each group's smallest approx, then the smallest overall:
              // the candidates are the centers within `window` of it, and
              // only groups whose own minimum is within reach hold any.
              double lowest = kInf;
              for (size_t g = 0; g < num_groups; ++g) {
                group_min[g] = MinApprox(norms.data(), dot, groups.begin[g],
                                         groups.begin[g + 1]);
                lowest = std::min(lowest, group_min[g]);
              }
              candidates.clear();
              for (size_t g = 0; g < num_groups; ++g) {
                if (group_min[g] > lowest + window) continue;
                for (size_t j = groups.begin[g]; j < groups.begin[g + 1];
                     ++j) {
                  if (approx(j) <= lowest + window) candidates.push_back(j);
                }
              }
              size_t nearest_at = 0;
              for (const size_t j : candidates) {
                const int32_t c = groups.order[j];
                const double dist =
                    SquaredDistance(centers.row(static_cast<size_t>(c)), x, d);
                if (Nearer(c, dist, nearest)) {
                  nearest = {c, dist};
                  nearest_at = j;
                }
              }
              local_measured += candidates.size();
              if (lower != nullptr) {
                // Each group's bound leaves out the point's own center.
                const auto own = static_cast<size_t>(
                    groups.group_of[static_cast<size_t>(nearest.first)]);
                group_min[own] = std::min(
                    MinApprox(norms.data(), dot, groups.begin[own], nearest_at),
                    MinApprox(norms.data(), dot, nearest_at + 1,
                              groups.begin[own + 1]));
                for (size_t g = 0; g < num_groups; ++g) {
                  lower[g] = FloatBelow(
                      std::sqrt(std::max(0.0, xx + group_min[g] - window)) *
                      (1.0 - kBoundSlack));
                }
              }
            } else {
              const int32_t own = (*assignment)[i];
              const double own_dist =
                  SquaredDistance(centers.row(static_cast<size_t>(own)), x, d);
              // A center whose distance is proven above `reach` has a
              // computed distance above own_dist.
              const double reach = std::sqrt(own_dist) * (1.0 + kBoundSlack);
              nearest = {own, own_dist};
              remeasured.clear();
              bool rescan = false;
              for (size_t g = 0; g < num_groups; ++g) {
                const size_t first = groups.begin[g];
                const size_t end = groups.begin[g + 1];
                const double bound = lower[g];
                const double loose =
                    first < end ? bound - bounds->drift[bounds->by_drift[first]]
                                : bound;
                if (loose > reach) {
                  lower[g] = FloatBelow(loose);
                  continue;
                }
                rescan = true;
                // Centers in descending drift: once one is ruled out, so is
                // every later one, and its bound is the group's smallest.
                double skipped = kInf;
                for (size_t t = first; t < end; ++t) {
                  const size_t j = bounds->by_drift[t];
                  const int32_t c = groups.order[j];
                  if (c == own) continue;
                  const double center_bound = bound - bounds->drift[j];
                  if (center_bound > reach) {
                    skipped = center_bound;
                    break;
                  }
                  const double dist = SquaredDistance(
                      centers.row(static_cast<size_t>(c)), x, d);
                  remeasured.emplace_back(c, dist);
                  if (Nearer(c, dist, nearest)) nearest = {c, dist};
                }
                lower[g] = FloatBelow(skipped);
              }
              local_measured += 1 + remeasured.size();
              local_rescanned += rescan ? 1 : 0;
              // Every measured center but the winner joins its group's
              // bound, the old own center included when it lost.
              if (nearest.first != own) remeasured.emplace_back(own, own_dist);
              for (const auto& [c, dist] : remeasured) {
                if (c == nearest.first) continue;
                float& bound =
                    lower[static_cast<size_t>(
                        groups.group_of[static_cast<size_t>(c)])];
                bound = std::min(
                    bound, FloatBelow(std::sqrt(dist) * (1.0 - kBoundSlack)));
              }
            }
            (*assignment)[i] = nearest.first;
            local += nearest.second;
          }
        }
        partial[chunk] = local;
        measured[chunk] = local_measured;
        rescanned[chunk] = local_rescanned;
      });
  if (bounds != nullptr) bounds->valid = filterable;
  double inertia = 0.0;
  for (double p : partial) inertia += p;
  if (n > 0) {
    const auto per_point = [n](const std::vector<size_t>& counts) {
      size_t total = 0;
      for (size_t m : counts) total += m;
      return static_cast<double>(total) / static_cast<double>(n);
    };
    obs::GaugeSet("kmeans.exact_per_point", per_point(measured));
    if (bounded) {
      obs::GaugeSet("kmeans.rescanned_per_point", per_point(rescanned));
    }
  }
  return inertia;
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
  // min_dist[i] is point i's D^2, measured to the chosen center whose
  // member list holds i; `unseen` holds the points with no finite distance
  // yet. reach[j] is the largest min_dist on list j.
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  std::vector<std::vector<size_t>> members(static_cast<size_t>(k));
  std::vector<double> reach(static_cast<size_t>(k), 0.0);
  std::vector<size_t> unseen(n);
  std::iota(unseen.begin(), unseen.end(), size_t{0});
  // A point's update is a proven no-op when gap > skip * min_dist, gap
  // being ||c_new - c_j||^2 or any lower bound on it: then
  // ||c_new - c_j|| > 2 ||x - c_j||, so by the triangle inequality c_new is
  // farther from x than c_j. The 1e-9 margin in `skip` exceeds the
  // relative rounding of the computed squared distances ((d + 6) 2^-53
  // each) below 2^20 dimensions, so the computed new distance is
  // >= min_dist and the update would keep min_dist: totals and picks stay
  // bitwise identical. Beyond that nothing is skipped. A whole list is
  // skipped when gap > skip * reach[j], which implies the test for each of
  // its members.
  const double skip = d < (size_t{1} << 20)
                          ? 4.0 * (1.0 + 1e-9)
                          : std::numeric_limits<double>::infinity();
  // The chosen centers transposed (GemmBlock's B operand) with their
  // squared norms: one float row of dots per round bounds every gap from
  // below, as the assignment filter bounds approx (kmeans.h), and only the
  // lists that bound cannot skip get an exact gap.
  Matrix chosen(d, static_cast<size_t>(k));
  std::vector<double> chosen_norm2(static_cast<size_t>(k));
  std::vector<float> dots(static_cast<size_t>(k));
  double max_norm2 = 0.0;
  bool finite = d <= kMaxFilterDim;
  const DotErrors errors(d);
  std::vector<size_t> open;
  // The D^2 total merges fixed, workload-derived chunk sums in ascending
  // order; a chunk is re-summed only when one of its points moved.
  const size_t chunks = ReduceChunksFor(n * d, n);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<double> partial((n + chunk_size - 1) / chunk_size, 0.0);
  std::vector<char> stale(partial.size(), 1);
  for (int32_t c = 1; c < k; ++c) {
    const auto newest = static_cast<size_t>(c - 1);
    const float* latest = centers.row(newest);
    const double norm2 = simd::Dot(latest, latest, d);
    for (size_t col = 0; col < d; ++col) chosen(col, newest) = latest[col];
    chosen_norm2[newest] = norm2;
    finite = finite && std::isfinite(norm2);
    max_norm2 = std::max(max_norm2, norm2);
    open.clear();
    if (finite &&
        std::sqrt(norm2) * std::sqrt(max_norm2) < kMaxFilterNormProduct) {
      std::fill_n(dots.begin(), newest, 0.0f);
      simd::GemmBlock(1, d, newest, latest, d, 1, chosen.data(),
                      static_cast<size_t>(k), dots.data(),
                      static_cast<size_t>(k));
      const double window = errors.Window(norm2, max_norm2);
      for (size_t j = 0; j < newest; ++j) {
        const double gap_below = norm2 + chosen_norm2[j] -
                                 2.0 * static_cast<double>(dots[j]) - window;
        if (!(gap_below > skip * reach[j])) open.push_back(j);
      }
    } else {
      for (size_t j = 0; j < newest; ++j) open.push_back(j);
    }
    // Measures point i against the newest center; true when it moved there.
    const auto moved = [&](size_t i) {
      const double dist = SquaredDistance(points.row(i), latest, d);
      if (!(dist < min_dist[i])) return false;
      min_dist[i] = dist;
      members[newest].push_back(i);
      reach[newest] = std::max(reach[newest], dist);
      stale[i / chunk_size] = 1;
      return true;
    };
    for (const size_t j : open) {
      const double gap = SquaredDistance(latest, centers.row(j), d);
      if (gap > skip * reach[j]) continue;
      std::vector<size_t>& list = members[j];
      size_t kept = 0;
      double kept_reach = 0.0;
      for (const size_t i : list) {
        // Negated so that a NaN gap never skips.
        if (!(gap > skip * min_dist[i]) && moved(i)) continue;
        list[kept++] = i;
        kept_reach = std::max(kept_reach, min_dist[i]);
      }
      list.resize(kept);
      reach[j] = kept_reach;
    }
    size_t still_unseen = 0;
    for (const size_t i : unseen) {
      if (!moved(i)) unseen[still_unseen++] = i;
    }
    unseen.resize(still_unseen);
    double total = 0.0;
    for (size_t chunk = 0; chunk < partial.size(); ++chunk) {
      if (stale[chunk] != 0) {
        double local = 0.0;
        for (size_t i = chunk * chunk_size;
             i < std::min(n, (chunk + 1) * chunk_size); ++i) {
          local += min_dist[i];
        }
        partial[chunk] = local;
        stale[chunk] = 0;
      }
      total += partial[chunk];
    }
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

  // Groups stay fixed for the run; bounds take n * G floats.
  const size_t num_groups = std::clamp<size_t>(
      static_cast<size_t>(k) / kCentersPerGroup, 1, kMaxGroups);
  const CenterGroups groups = GroupCenters(result.centers, num_groups);
  PassBounds bounds;
  bounds.lower.resize(n * num_groups);
  bounds.norm2.resize(n);
  bounds.drift.resize(static_cast<size_t>(k));
  bounds.by_drift.resize(static_cast<size_t>(k));
  Matrix previous(static_cast<size_t>(k), d);

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
    result.inertia = AssignPass(points, result.centers, groups, &bounds,
                                &result.assignment);
    if (track_churn && iter > 0 && n > 0) {
      size_t changed = 0;
      for (size_t i = 0; i < n; ++i) {
        if (result.assignment[i] != prev_assignment[i]) ++changed;
      }
      obs::GaugeSet("kmeans.assignment_churn",
                    static_cast<double>(changed) / static_cast<double>(n));
    }
    std::copy_n(result.centers.data(), result.centers.size(),
                previous.data());

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
      // Its bounds excluded its old center, which is now just another one.
      std::fill_n(bounds.lower.data() + best_point * num_groups, num_groups,
                  0.0f);
      ++iter_reseeds;
    }
    result.reseeds += iter_reseeds;
    MeasureDrift(groups, previous, result.centers, &bounds);

    // A reseed moved a center by definition; don't let a small shift total
    // declare convergence on the same iteration.
    if (iter_reseeds == 0 && shift < config.tol) break;
  }
  result.inertia = AssignPass(points, result.centers, groups, &bounds,
                              &result.assignment);
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
  return AssignPass(points, centers, GroupCenters(centers, 1), nullptr,
                    assignment);
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
