// NEON (arm64 baseline) kernel table. Mirrors simd_avx2.cc: no fused
// multiply-add instructions (vmlaq/fmla fuse the rounding; the contract in
// simd.h requires the scalar mul-then-add sequence per element), and
// reductions follow the shared lane-strided schedule.

#include "nn/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace hignn {
namespace simd {
namespace internal {

namespace {

void AccumulateNeon(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vld1q_f32(dst + i);
    const float32x4_t s = vld1q_f32(src + i);
    vst1q_f32(dst + i, vaddq_f32(d, s));
  }
  AccumulateScalar(dst + i, src + i, n - i);
}

void AxpyNeon(float* dst, float alpha, const float* src, size_t n) {
  const float32x4_t a = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vld1q_f32(dst + i);
    const float32x4_t s = vld1q_f32(src + i);
    vst1q_f32(dst + i, vaddq_f32(d, vmulq_f32(a, s)));
  }
  AxpyScalar(dst + i, alpha, src + i, n - i);
}

void GemmBlockNeon(size_t mr, size_t kc, size_t n, const float* a,
                   size_t lda, size_t a_step, const float* b, size_t ldb,
                   float* c, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    float32x4_t acc[kGemmRowTile];
    for (size_t r = 0; r < mr; ++r) {
      acc[r] = vld1q_f32(c + r * ldc + j);
    }
    for (size_t p = 0; p < kc; ++p) {
      const float32x4_t bv = vld1q_f32(b + p * ldb + j);
      for (size_t r = 0; r < mr; ++r) {
        const float32x4_t av = vdupq_n_f32(a[r * lda + p * a_step]);
        acc[r] = vaddq_f32(acc[r], vmulq_f32(av, bv));
      }
    }
    for (size_t r = 0; r < mr; ++r) {
      vst1q_f32(c + r * ldc + j, acc[r]);
    }
  }
  if (j < n) {
    GemmBlockScalar(mr, kc, n - j, a, lda, a_step, b + j, ldb, c + j, ldc);
  }
}

// Lanes 0..1 live in acc_lo, lanes 2..3 in acc_hi; one vector iteration
// handles indices i..i+3, matching the scalar i % kReduceLanes ownership.
double DotNeon(const float* x, const float* y, size_t n) {
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    const float32x4_t xv = vld1q_f32(x + i);
    const float32x4_t yv = vld1q_f32(y + i);
    const float64x2_t xlo = vcvt_f64_f32(vget_low_f32(xv));
    const float64x2_t xhi = vcvt_f64_f32(vget_high_f32(xv));
    const float64x2_t ylo = vcvt_f64_f32(vget_low_f32(yv));
    const float64x2_t yhi = vcvt_f64_f32(vget_high_f32(yv));
    acc_lo = vaddq_f64(acc_lo, vmulq_f64(xlo, ylo));
    acc_hi = vaddq_f64(acc_hi, vmulq_f64(xhi, yhi));
  }
  double lane[kReduceLanes];
  vst1q_f64(lane, acc_lo);
  vst1q_f64(lane + 2, acc_hi);
  for (; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  return MergeLanes(lane);
}

double SquaredDistanceNeon(const float* x, const float* y, size_t n) {
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    const float32x4_t xv = vld1q_f32(x + i);
    const float32x4_t yv = vld1q_f32(y + i);
    const float64x2_t dlo = vsubq_f64(vcvt_f64_f32(vget_low_f32(xv)),
                                      vcvt_f64_f32(vget_low_f32(yv)));
    const float64x2_t dhi = vsubq_f64(vcvt_f64_f32(vget_high_f32(xv)),
                                      vcvt_f64_f32(vget_high_f32(yv)));
    acc_lo = vaddq_f64(acc_lo, vmulq_f64(dlo, dlo));
    acc_hi = vaddq_f64(acc_hi, vmulq_f64(dhi, dhi));
  }
  double lane[kReduceLanes];
  vst1q_f64(lane, acc_lo);
  vst1q_f64(lane + 2, acc_hi);
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    lane[i % kReduceLanes] += d * d;
  }
  return MergeLanes(lane);
}

// Tanh, LeakyRelu and MatchDots run the scalar reference: the kernels are
// exact either way, and the AVX2 versions have not been mirrored here.
constexpr Kernels kNeonKernels = {
    AccumulateNeon,  AxpyNeon,        GemmBlockNeon, TanhScalar,
    LeakyReluScalar, MatchDotsScalar, DotNeon,       SquaredDistanceNeon,
};

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonKernels; }

}  // namespace internal
}  // namespace simd
}  // namespace hignn

#else  // !defined(__aarch64__)

namespace hignn {
namespace simd {
namespace internal {

const Kernels* GetNeonKernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace hignn

#endif
