#ifndef HIGNN_UTIL_RNG_H_
#define HIGNN_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace hignn {

/// \brief Snapshot of a generator's full internal state, used by the
/// training checkpointer so a resumed run consumes the random stream from
/// exactly where the interrupted run left off.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// \brief Fast deterministic pseudo-random number generator
/// (xoshiro256** seeded via splitmix64).
///
/// All stochastic components of the library (data generation, negative
/// sampling, initializers, K-means seeding) draw from explicitly passed Rng
/// instances so that every experiment is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// \brief Next raw 64-bit value.
  uint64_t Next();

  /// \brief Uniform in [0, 1).
  double Uniform();

  /// \brief Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// \brief Standard normal via Box-Muller (cached second draw).
  double Normal();

  /// \brief Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// \brief Poisson draw (Knuth's method; suitable for small lambda).
  int Poisson(double lambda);

  /// \brief Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// \brief Captures the complete generator state (stream position plus
  /// the Box-Muller cache) for checkpointing.
  RngState SaveState() const;

  /// \brief Restores a state captured with SaveState(); the subsequent
  /// draw sequence is bitwise identical to the original generator's.
  void RestoreState(const RngState& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// \brief Walker's alias method for O(1) sampling from a fixed discrete
/// distribution after O(n) setup. Used for word2vec / edge negative
/// sampling where millions of draws hit the same distribution.
class AliasSampler {
 public:
  /// \brief Builds the alias table from non-negative weights
  /// (not necessarily normalized). An empty weight vector is allowed but
  /// Sample() must not be called on it.
  explicit AliasSampler(const std::vector<double>& weights);

  /// \brief Draws an index in [0, size()).
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace hignn

#endif  // HIGNN_UTIL_RNG_H_
