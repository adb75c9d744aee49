#ifndef HIGNN_CLUSTER_KMEANS_H_
#define HIGNN_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace hignn {

/// \brief Which K-means variant to run.
///
/// The paper's complexity analysis (Sec. III-D) relies on the single-pass
/// estimator "which estimates the cluster centers with a single pass over
/// all data and is appropriate for large-scale clustering" — O(M*Ku).
/// Lloyd and mini-batch are provided for quality comparison and ablation.
enum class KMeansAlgorithm {
  kLloyd,       ///< classic batch EM until convergence / max_iters
  kMiniBatch,   ///< Sculley-style mini-batch updates
  kSinglePass,  ///< one streaming pass with online center updates
};

/// \brief K-means configuration.
struct KMeansConfig {
  int32_t k = 8;
  KMeansAlgorithm algorithm = KMeansAlgorithm::kLloyd;
  int32_t max_iters = 25;         ///< Lloyd iterations
  double tol = 1e-4;              ///< Lloyd: stop when center shift < tol
  int32_t batch_size = 256;       ///< mini-batch size
  int32_t minibatch_steps = 100;  ///< mini-batch update steps
  uint64_t seed = 42;
  bool kmeanspp_init = true;      ///< k-means++ seeding (else random rows)
};

/// \brief Clustering result.
struct KMeansResult {
  Matrix centers;                    ///< (k x d)
  std::vector<int32_t> assignment;   ///< per-point center index
  double inertia = 0.0;              ///< sum of squared point-center dists
  int32_t iterations = 0;            ///< iterations actually run
  /// Empty clusters reseeded during the run (deterministic farthest-point
  /// steal). A persistently nonzero count means k is too large for the
  /// data's structure.
  int32_t reseeds = 0;
};

/// \brief Clusters the rows of `points` (n x d).
///
/// Guarantees every returned assignment is in [0, k). If n < k the
/// effective k is reduced to n. Empty input is an error.
///
/// Assignment and center accumulation fan out over GlobalThreadPool();
/// all floating-point reductions merge fixed, workload-derived chunks in
/// ascending order, so results for a given seed are bitwise identical at
/// any thread count.
///
/// Every result is bit for bit that of the plain algorithm: k-means++ with
/// each chosen center measured against every point, and Lloyd passes that
/// measure every center (AssignToNearestCenters' contract). Two exact
/// shortcuts skip the work whose outcome is proven.
///
/// k-means++ seeding. Each chosen center j keeps a member list (the points
/// whose D^2 it holds) and reach_j, their largest D^2. A point's D^2
/// update for a new center is a proven no-op when gap > 4 (1 + 1e-9) D^2,
/// gap being ||c_new - c_j||^2 or any lower bound on it: then
/// ||c_new - c_j|| > 2 ||x - c_j||, the triangle inequality puts c_new
/// farther, and the 1e-9 margin covers the exact kernel's rounding
/// ((d + 6) 2^-53 relative per distance), so the computed new distance is
/// no smaller and the update keeps D^2. The same test with reach_j skips a
/// whole list. Each round computes float dots of the new center against
/// all chosen ones (simd::GemmBlock); ||c_new||^2 + ||c_j||^2 - 2 dot minus
/// the filter's window below bounds gap from below, and only the lists that
/// bound cannot skip get an exact gap and the per-point test. The rng draws
/// and the sequential pick scan are unchanged, and the D^2 total re-sums
/// only the fixed chunks whose points moved, so totals and picks keep
/// their bits.
///
/// Lloyd. The centers fall into G = clamp(k / 8, 1, 64) groups, fixed for
/// the run (a 5-iteration Lloyd over the initial centers, seeded with the
/// first G). Each point keeps, per group, a float lower bound on its real
/// distance to the group's centers other than its own: n * G * 4 bytes.
///  - Creating. The first pass is the GEMM filter below. Its approx_c is
///    within e of ||c||^2 - 2 x.c, so ||x||^2 + min_c approx_c - 2e (the
///    second e covering the double rounding of that sum) bounds the
///    group's squared distances from below. Its square root, shrunk by
///    1e-9 for the sqrt's rounding, is stored rounded down to a float.
///  - Loosening. After the center update (and any reseed), each center's
///    drift is ||c_new - c_old|| rounded up by 1e-9; by the triangle
///    inequality a bound minus the largest drift in its group still bounds
///    the group, and is stored rounded down.
///  - Testing. A later pass measures the point's own center exactly
///    (own^2), so inertia keeps its bits. A group whose loosened bound
///    exceeds reach = sqrt(own^2) (1 + 1e-9) is skipped: every center in
///    it is farther by more than the kernel's rounding, so its computed
///    distance exceeds own^2. In other groups, centers are taken by
///    descending drift and measured until old bound - drift exceeds reach,
///    which then holds for the rest. The winner is the (distance, index)
///    minimum of what was measured, where the ascending scan's first
///    strict minimum lands; every other measured distance, shrunk by 1e-9,
///    joins its group's bound (the old own center's too, when it lost).
/// A reseed zeroes the bounds of the one point it moves. Points or passes
/// the filter cannot take (below) take the full scan; after a pass whose
/// centers it cannot take, the next filterable pass is a GEMM pass again.
/// The `kmeans.rescanned_per_point` gauge is the share of points per
/// bounded pass that fail a group test.
Result<KMeansResult> RunKMeans(const Matrix& points, const KMeansConfig& config);

/// \brief Assigns each row of `points` (n x d) to its nearest row of
/// `centers` (k x d, k >= 1), writes the indices to `*assignment` (resized
/// to n) and returns the inertia. Every variant's assignment passes run
/// here. The result is bit for bit that of measuring every center with the
/// lane-strided `simd::SquaredDistance` in ascending order and keeping the
/// first strict minimum (ties go to the lowest index), with the inertia
/// merged from fixed, workload-derived point chunks in ascending order.
///
/// Only a shortlist is measured exactly. For blocks of 16 points,
/// `simd::GemmBlock` computes float dot products against the transposed
/// centers, and each point ranks centers by approx_c = ||c||^2 - 2 x.c,
/// which differs from ||x - c||^2 by the constant ||x||^2. A d-term float
/// dot product is off by at most gamma_d ||x|| ||c||, with
/// gamma_d = d 2^-24 / (1 - d 2^-24), so every approx_c is within
///   e = 2.02 gamma_d ||x|| max||c|| + 1e-12 (||x||^2 + max||c||^2)
///       + d 2^-148
/// of its exact value: 2 gamma_d is the proven bound, the extra
/// 0.02 gamma_d and the 1e-12 term are slack, and d 2^-148 covers products
/// that underflow. Only centers with approx_c <= min approx + 2e are
/// measured. Any other center is farther from x than the approx winner by
/// more than twice the slack, which exceeds the double rounding of the
/// exact kernel ((d + 6) 2^-53 relative) for d <= 1024; so its computed
/// distance is strictly larger than the winner's, and the full scan would
/// not have picked it either. Points or centers that are not finite,
/// d > 1024, and ||x|| max||c|| >= 1e37 (where a float dot product could
/// overflow) take the full scan.
///
/// Sets the `kmeans.exact_per_point` gauge to the exact distances measured
/// per point (k on the full scan); Lloyd's bounded passes set it too.
double AssignToNearestCenters(const Matrix& points, const Matrix& centers,
                              std::vector<int32_t>* assignment);

/// \brief Calinski-Harabasz index (Eq. 13): between-cluster variance over
/// within-cluster variance, scaled by (N-k)/(k-1). Larger is better.
/// Requires 2 <= k < n and at least two non-empty clusters; returns 0
/// otherwise.
double CalinskiHarabaszIndex(const Matrix& points,
                             const std::vector<int32_t>& assignment,
                             int32_t k);

/// \brief Picks k from `candidates` maximizing the CH index (Sec. V-C.1),
/// running K-means per candidate. Returns the best KMeansResult and sets
/// `*best_k`.
Result<KMeansResult> SelectKByCalinskiHarabasz(
    const Matrix& points, const std::vector<int32_t>& candidates,
    const KMeansConfig& base_config, int32_t* best_k);

}  // namespace hignn

#endif  // HIGNN_CLUSTER_KMEANS_H_
