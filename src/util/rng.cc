#include "util/rng.h"

#include "util/logging.h"

namespace hignn {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  HIGNN_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Poisson(double lambda) {
  HIGNN_CHECK_GE(lambda, 0.0);
  const double limit = std::exp(-lambda);
  double product = Uniform();
  int count = 0;
  while (product > limit) {
    product *= Uniform();
    ++count;
  }
  return count;
}

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  prob_.resize(n);
  alias_.resize(n);
  if (n == 0) return;

  double total = 0.0;
  for (double w : weights) {
    HIGNN_CHECK_GE(w, 0.0);
    total += w;
  }
  HIGNN_CHECK_GT(total, 0.0);

  // Scale so the average bucket mass is exactly 1.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }

  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers: both queues drain to probability 1 buckets.
  for (uint32_t s : small) {
    prob_[s] = 1.0;
    alias_[s] = s;
  }
  for (uint32_t l : large) {
    prob_[l] = 1.0;
    alias_[l] = l;
  }
}

size_t AliasSampler::Sample(Rng& rng) const {
  HIGNN_CHECK(!prob_.empty());
  const size_t i = rng.UniformInt(prob_.size());
  return rng.Uniform() < prob_[i] ? i : alias_[i];
}

}  // namespace hignn
