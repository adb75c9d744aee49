#include "nn/simd.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace hignn {
namespace simd {

namespace internal {

void AccumulateScalar(float* dst, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AxpyScalar(float* dst, float alpha, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

namespace {

// Narrow blocks: one register accumulator per row for the whole p loop,
// column by column (the row loop below re-reads and re-writes c every p).
// MR is a template argument so the accumulators are registers, not a
// stack array.
template <size_t MR>
void GemmColumnsScalar(size_t kc, size_t n, const float* a, size_t lda,
                       size_t a_step, const float* b, size_t ldb, float* c,
                       size_t ldc) {
  for (size_t j = 0; j < n; ++j) {
    float acc[MR];
    for (size_t r = 0; r < MR; ++r) acc[r] = c[r * ldc + j];
    for (size_t p = 0; p < kc; ++p) {
      const float bv = b[p * ldb + j];
      for (size_t r = 0; r < MR; ++r) {
        acc[r] += a[r * lda + p * a_step] * bv;
      }
    }
    for (size_t r = 0; r < MR; ++r) c[r * ldc + j] = acc[r];
  }
}

}  // namespace

void GemmBlockScalar(size_t mr, size_t kc, size_t n, const float* a,
                     size_t lda, size_t a_step, const float* b, size_t ldb,
                     float* c, size_t ldc) {
  if (n < 8) {
    switch (mr) {
      case 0:
        return;
      case 1:
        return GemmColumnsScalar<1>(kc, n, a, lda, a_step, b, ldb, c, ldc);
      case 2:
        return GemmColumnsScalar<2>(kc, n, a, lda, a_step, b, ldb, c, ldc);
      case 3:
        return GemmColumnsScalar<3>(kc, n, a, lda, a_step, b, ldb, c, ldc);
      default:
        return GemmColumnsScalar<4>(kc, n, a, lda, a_step, b, ldb, c, ldc);
    }
  }
  for (size_t r = 0; r < mr; ++r) {
    const float* arow = a + r * lda;
    float* crow = c + r * ldc;
    for (size_t p = 0; p < kc; ++p) {
      const float av = arow[p * a_step];
      const float* brow = b + p * ldb;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

namespace {

// glibc's expm1f (sysdeps/ieee754/flt-32/s_expm1f.c) over the arguments
// tanhf passes it: finite, 2^-54 <= |x| < 44. That domain skips glibc's
// overflow/-1 saturation filter, and its k == 1 branch (which needs
// 0.35 < x < 1.04; tanhf's positive arguments are >= 2).
float Expm1fForTanh(float x) {
  const uint32_t hx = std::bit_cast<uint32_t>(x) & 0x7fffffffu;
  const bool negative = x < 0.0f;
  if (hx < kExpm1Tiny) return x;  // |x| < 2^-25
  // Argument reduction x = k ln2 + r (hi - lo carries r; c its error).
  int32_t k = 0;
  float c = 0.0f;
  if (hx > kExpm1HalfLn2) {
    float hi;
    float lo;
    if (hx < kExpm1ThreeHalvesLn2) {
      hi = negative ? x + kLn2Hi : x - kLn2Hi;
      lo = negative ? -kLn2Lo : kLn2Lo;
      k = negative ? -1 : 1;
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f +
      hxs * (kExpm1Q1 +
             hxs * (kExpm1Q2 + hxs * (kExpm1Q3 + hxs * (kExpm1Q4 +
                                                      hxs * kExpm1Q5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  // Scale by 2^k by adding k to the exponent field.
  const uint32_t exp_k = static_cast<uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float y = 1.0f - (e - x);
    return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + exp_k) - 1.0f;
  }
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(
        0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    const float y = one_minus - (e - x);
    return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + exp_k);
  }
  const float two_minus_k =
      std::bit_cast<float>(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + two_minus_k);
  y += 1.0f;
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + exp_k);
}

float TanhOne(float x) {
  const uint32_t jx = std::bit_cast<uint32_t>(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx >> 31) != 0;
  if (ix >= kFloatInf) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z = 1.0f;  // |x| >= 22: glibc's 1 - 1e-30 rounds to 1
  if (ix < kTanhSaturate) {
    if (ix < kTanhTiny) return x * (1.0f + x);  // |x| < 2^-55, +-0 too
    if (ix >= kTanhOne) {  // |x| >= 1
      const float t = Expm1fForTanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1fForTanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return negative ? -z : z;
}

}  // namespace

void TanhScalar(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = TanhOne(x[i]);
}

void LeakyReluScalar(float* x, float slope, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = slope * x[i];
  }
}

void MatchDotsScalar(const float* user, const float* items,
                     size_t item_stride, size_t n, size_t levels, size_t d,
                     float* out, size_t out_stride) {
  for (size_t r = 0; r < n; ++r) {
    const float* item = items + r * item_stride;
    for (size_t l = 0; l < levels; ++l) {
      double dot = 0.0;
      for (size_t c = l * d; c < (l + 1) * d; ++c) {
        dot += static_cast<double>(user[c]) * item[c];
      }
      out[r * out_stride + l] = std::isnan(dot)
                                    ? std::numeric_limits<float>::quiet_NaN()
                                    : static_cast<float>(dot);
    }
  }
}

double DotScalar(const float* x, const float* y, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  return MergeLanes(lane);
}

double SquaredDistanceScalar(const float* x, const float* y, size_t n) {
  double lane[kReduceLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    lane[i % kReduceLanes] += d * d;
  }
  return MergeLanes(lane);
}

}  // namespace internal

namespace {

using internal::Kernels;

constexpr Kernels kScalarKernels = {
    internal::AccumulateScalar, internal::AxpyScalar,
    internal::GemmBlockScalar,  internal::TanhScalar,
    internal::LeakyReluScalar,  internal::MatchDotsScalar,
    internal::DotScalar,        internal::SquaredDistanceScalar,
};

// Compiled into this binary AND supported by the running CPU.
bool PathSupported(IsaPath path) {
  switch (path) {
    case IsaPath::kAvx2:
#if defined(__x86_64__)
      return internal::GetAvx2Kernels() != nullptr &&
             __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case IsaPath::kNeon:
      return internal::GetNeonKernels() != nullptr;
    case IsaPath::kScalar:
      return true;
  }
  return false;
}

const Kernels* KernelsFor(IsaPath path) {
  if (!PathSupported(path)) return &kScalarKernels;
  switch (path) {
    case IsaPath::kAvx2:
      return internal::GetAvx2Kernels();
    case IsaPath::kNeon:
      return internal::GetNeonKernels();
    case IsaPath::kScalar:
      break;
  }
  return &kScalarKernels;
}

bool ScalarForcedByEnv() {
  const char* env = std::getenv("HIGNN_SIMD");
  if (env == nullptr) return false;
  std::string value(env);
  for (char& c : value) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return value == "off" || value == "scalar" || value == "0";
}

IsaPath DetectBestPath() {
  if (ScalarForcedByEnv()) return IsaPath::kScalar;
  if (PathSupported(IsaPath::kAvx2)) return IsaPath::kAvx2;
  if (PathSupported(IsaPath::kNeon)) return IsaPath::kNeon;
  return IsaPath::kScalar;
}

struct Dispatch {
  IsaPath best;
  IsaPath active;
  const Kernels* kernels;
};

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = [] {
    const IsaPath best = DetectBestPath();
    return Dispatch{best, best, KernelsFor(best)};
  }();
  return dispatch;
}

}  // namespace

IsaPath Active() { return ActiveDispatch().active; }

IsaPath Best() { return ActiveDispatch().best; }

const char* PathName() {
  switch (Active()) {
    case IsaPath::kAvx2:
      return "avx2";
    case IsaPath::kNeon:
      return "neon";
    case IsaPath::kScalar:
      break;
  }
  return "scalar";
}

void ForcePathForTesting(IsaPath path) {
  Dispatch& dispatch = ActiveDispatch();
  const Kernels* kernels = KernelsFor(path);
  dispatch.active = kernels == &kScalarKernels ? IsaPath::kScalar : path;
  dispatch.kernels = kernels;
}

void Accumulate(float* dst, const float* src, size_t n) {
  ActiveDispatch().kernels->accumulate(dst, src, n);
}

void Axpy(float* dst, float alpha, const float* src, size_t n) {
  ActiveDispatch().kernels->axpy(dst, alpha, src, n);
}

void GemmBlock(size_t mr, size_t kc, size_t n, const float* a, size_t lda,
               size_t a_step, const float* b, size_t ldb, float* c,
               size_t ldc) {
  ActiveDispatch().kernels->gemm_block(mr, kc, n, a, lda, a_step, b, ldb, c,
                                       ldc);
}

void Tanh(float* x, size_t n) { ActiveDispatch().kernels->tanh(x, n); }

void LeakyRelu(float* x, float slope, size_t n) {
  ActiveDispatch().kernels->leaky_relu(x, slope, n);
}

void MatchDots(const float* user, const float* items, size_t item_stride,
               size_t n, size_t levels, size_t d, float* out,
               size_t out_stride) {
  ActiveDispatch().kernels->match_dots(user, items, item_stride, n, levels,
                                       d, out, out_stride);
}

double Dot(const float* x, const float* y, size_t n) {
  return ActiveDispatch().kernels->dot(x, y, n);
}

double SquaredDistance(const float* x, const float* y, size_t n) {
  return ActiveDispatch().kernels->squared_distance(x, y, n);
}

}  // namespace simd
}  // namespace hignn
