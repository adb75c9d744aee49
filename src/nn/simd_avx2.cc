// AVX2 kernel table. Deliberately no FMA: vfmadd's single rounding differs
// from the scalar mul+add double rounding, and the determinism contract
// (simd.h) requires bitwise-identical results on every path. Each vector
// lane performs exactly the scalar op sequence for its element; reductions
// follow the shared lane-strided schedule.

#include "nn/simd.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <initializer_list>
#include <limits>
#include <vector>

namespace hignn {
namespace simd {
namespace internal {

namespace {

void AccumulateAvx2(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 s = _mm256_loadu_ps(src + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(d, s));
  }
  AccumulateScalar(dst + i, src + i, n - i);
}

void AxpyAvx2(float* dst, float alpha, const float* src, size_t n) {
  const __m256 a = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_loadu_ps(dst + i);
    const __m256 s = _mm256_loadu_ps(src + i);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(d, _mm256_mul_ps(a, s)));
  }
  AxpyScalar(dst + i, alpha, src + i, n - i);
}

// MR-row x (8 * NV)-column register tile: MR * NV ymm accumulators hold
// the C tile across the whole p loop, so each output element sees the
// same ascending-p mul-then-add chain as the scalar kernel (a register
// accumulator computes identical float ops to the scalar read-modify-write
// sequence starting from the same C value). NV = 2 gives 8 independent
// add chains at MR = 4, enough to cover the add latency. With a width
// below 8 (NV = 1 only) the loads and stores are masked to the first
// `width` lanes, so the last n % 8 columns run the same chains in place.
template <size_t MR, size_t NV, bool kMasked = false>
void GemmTile(size_t kc, const float* a, size_t lda, size_t a_step,
              const float* b, size_t ldb, float* c, size_t ldc,
              size_t width = 8) {
  static_assert(!kMasked || NV == 1);
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int32_t>(width)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const auto load = [&mask](const float* p) {
    return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
  };
  __m256 acc[MR][NV];
  for (size_t r = 0; r < MR; ++r) {
    for (size_t v = 0; v < NV; ++v) acc[r][v] = load(c + r * ldc + 8 * v);
  }
  for (size_t p = 0; p < kc; ++p) {
    __m256 bv[NV];
    for (size_t v = 0; v < NV; ++v) bv[v] = load(b + p * ldb + 8 * v);
    for (size_t r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + p * a_step]);
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  for (size_t r = 0; r < MR; ++r) {
    for (size_t v = 0; v < NV; ++v) {
      if (kMasked) {
        _mm256_maskstore_ps(c + r * ldc, mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
      }
    }
  }
}

// 16-column tiles, then one 8-column tile, then a masked tile for the
// last n % 8 columns.
template <size_t MR>
void GemmRows(size_t kc, size_t n, const float* a, size_t lda, size_t a_step,
              const float* b, size_t ldb, float* c, size_t ldc) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmTile<MR, 2>(kc, a, lda, a_step, b + j, ldb, c + j, ldc);
  }
  if (j + 8 <= n) {
    GemmTile<MR, 1>(kc, a, lda, a_step, b + j, ldb, c + j, ldc);
    j += 8;
  }
  if (j < n) {
    GemmTile<MR, 1, true>(kc, a, lda, a_step, b + j, ldb, c + j, ldc, n - j);
  }
}

void GemmBlockAvx2(size_t mr, size_t kc, size_t n, const float* a,
                   size_t lda, size_t a_step, const float* b, size_t ldb,
                   float* c, size_t ldc) {
  switch (mr) {
    case 0:
      return;
    case 1:
      return GemmRows<1>(kc, n, a, lda, a_step, b, ldb, c, ldc);
    case 2:
      return GemmRows<2>(kc, n, a, lda, a_step, b, ldb, c, ldc);
    case 3:
      return GemmRows<3>(kc, n, a, lda, a_step, b, ldb, c, ldc);
    default:
      return GemmRows<4>(kc, n, a, lda, a_step, b, ldb, c, ldc);
  }
}

// simd.cc's glibc tanhf port, eight lanes at a time: every branch is
// computed for every lane and the lane's own branch is selected, so each
// lane runs exactly the scalar op sequence for its input.
__m256 TanhLanes(__m256 x) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256 sign_bit = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<int32_t>(0x80000000u)));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x), abs_mask);
  const auto bits_at_least = [&ix](uint32_t bits) {  // ix >= bits
    return _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(
                                      static_cast<int32_t>(bits - 1)));
  };
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256i ge_one = bits_at_least(kTanhOne);

  // expm1f(u), u = 2|x| where |x| >= 1 and -2|x| below.
  const __m256 two_ax = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));
  const __m256 u = _mm256_xor_ps(
      two_ax, _mm256_andnot_ps(_mm256_castsi256_ps(ge_one), sign_bit));
  const __m256i hu = _mm256_and_si256(_mm256_castps_si256(u), abs_mask);
  const __m256 u_neg = _mm256_and_ps(u, sign_bit);
  const auto hu_above = [&hu](uint32_t bits) {  // hu > bits
    return _mm256_cmpgt_epi32(hu, _mm256_set1_epi32(
                                      static_cast<int32_t>(bits)));
  };
  // k: 0 up to 0.5 ln2, -1 (u < 0 here) below 1.5 ln2, else rounded.
  const __m256 half_signed = _mm256_or_ps(_mm256_set1_ps(0.5f), u_neg);
  const __m256i k_round = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), u), half_signed));
  const __m256i above_half = hu_above(kExpm1HalfLn2);
  const __m256i above_three_halves = hu_above(kExpm1ThreeHalvesLn2 - 1);
  const __m256i k = _mm256_and_si256(
      above_half, _mm256_blendv_epi8(_mm256_set1_epi32(-1), k_round,
                                     above_three_halves));
  // hi = u - k ln2_hi, lo = k ln2_lo: bit-identical to glibc's u -+ ln2_hi
  // and +-ln2_lo at k = +-1, and to the unreduced u (c = 0) at k = 0.
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi =
      _mm256_sub_ps(u, _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Lo));
  const __m256 r = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5f), r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 poly = _mm256_mul_ps(hxs, _mm256_set1_ps(kExpm1Q5));
  for (const float q : {kExpm1Q4, kExpm1Q3, kExpm1Q2, kExpm1Q1}) {
    poly = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q), poly));
  }
  const __m256 r1 = _mm256_add_ps(one, poly);
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(r, t))));
  // k == 0.
  const __m256 em_k0 =
      _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e0), hxs));
  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e0, c)), c), hxs);
  // k == -1.
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 em_km1 = _mm256_sub_ps(
      _mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
  // The remaining branches scale by 2^k through the exponent field.
  const __m256i exp_k = _mm256_slli_epi32(k, 23);
  const auto scale = [&exp_k](__m256 y) {
    return _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y), exp_k));
  };
  const __m256 e_minus_r = _mm256_sub_ps(e, r);
  // k <= -2 or k > 56.
  const __m256 em_far = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_minus_r)),
                                      one);
  // 2 <= k < 23: 1 - 2^-k.
  const __m256 one_minus = _mm256_castsi256_ps(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 em_low = scale(_mm256_sub_ps(one_minus, e_minus_r));
  // 23 <= k <= 56: 2^-k.
  const __m256 two_minus_k = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 em_high = scale(
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, two_minus_k)), one));

  const auto k_above = [&k](int32_t bound) {  // k > bound
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(k, _mm256_set1_epi32(bound)));
  };
  const auto select = [](__m256 mask, __m256 if_set, __m256 if_clear) {
    return _mm256_blendv_ps(if_clear, if_set, mask);
  };
  __m256 em = select(k_above(22), em_high, em_low);
  const __m256 k_below_minus_one = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k));
  em = select(_mm256_or_ps(k_above(56), k_below_minus_one), em_far, em);
  em = select(_mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))),
              em_km1, em);
  em = select(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
                  k, _mm256_setzero_si256())),
              em_k0, em);
  em = select(_mm256_castsi256_ps(hu_above(kExpm1Tiny - 1)), em, u);

  // tanh from t = expm1f(u): 1 - 2 / (t + 2) where |x| >= 1, else
  // -t / (t + 2). One division serves both: each lane divides its own
  // branch's numerator.
  const __m256 big = _mm256_castsi256_ps(ge_one);
  const __m256 quotient = _mm256_div_ps(
      select(big, two, _mm256_xor_ps(em, sign_bit)), _mm256_add_ps(em, two));
  __m256 z = select(big, _mm256_sub_ps(one, quotient), quotient);
  const __m256i saturated = bits_at_least(kTanhSaturate);
  z = select(_mm256_castsi256_ps(saturated), one, z);
  z = _mm256_xor_ps(z, sign);
  const __m256 tiny =
      _mm256_mul_ps(x, _mm256_add_ps(one, x));  // |x| < 2^-55
  z = select(_mm256_castsi256_ps(bits_at_least(kTanhTiny)), z, tiny);
  // +-inf -> +-1 and NaN -> NaN through 1/x +- 1, for blocks that hold one.
  const __m256 non_finite = _mm256_castsi256_ps(bits_at_least(kFloatInf));
  if (_mm256_movemask_ps(non_finite) == 0) return z;
  const __m256 recip = _mm256_div_ps(one, x);
  return select(non_finite,
                select(sign, _mm256_sub_ps(recip, one),
                       _mm256_add_ps(recip, one)),
                z);
}

void TanhAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, TanhLanes(_mm256_loadu_ps(x + i)));
  }
  TanhScalar(x + i, n - i);
}

// Per lane the scalar op sequence: an ordered x < 0 compare (false for
// NaN and -0.0), the product, and the product kept only where the
// compare held.
void LeakyReluAvx2(float* x, float slope, size_t n) {
  const __m256 s = _mm256_set1_ps(slope);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 negative = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(x + i,
                     _mm256_blendv_ps(v, _mm256_mul_ps(s, v), negative));
  }
  LeakyReluScalar(x + i, slope, n - i);
}

// Rows in lanes: lane j of the accumulator is row r + j's chain for one
// level. Per 4 columns the rows' floats are transposed so that one register
// holds a column of the 4 rows, widened, and multiplied by the user's
// widened value for that column into the accumulator. The last d % 4
// columns are gathered one column at a time into the same chains. Each
// NaN dot is replaced by the quiet NaN, as in the scalar chain.
void MatchDotsAvx2(const float* user, const float* items, size_t item_stride,
                   size_t n, size_t levels, size_t d, float* out,
                   size_t out_stride) {
  size_t r = 0;
  if (n >= 4) {
    const __m128 quiet_nan =
        _mm_set1_ps(std::numeric_limits<float>::quiet_NaN());
    const std::vector<double> widened(user, user + levels * d);
    for (; r + 4 <= n; r += 4) {
      const float* v0 = items + r * item_stride;
      const float* v1 = v0 + item_stride;
      const float* v2 = v1 + item_stride;
      const float* v3 = v2 + item_stride;
      float* o = out + r * out_stride;
      for (size_t c0 = 0, l = 0; l < levels; ++l, c0 += d) {
        const double* u = widened.data() + c0;
        const auto step = [&u](__m256d acc, size_t c, __m128 column) {
          return _mm256_add_pd(acc,
                               _mm256_mul_pd(_mm256_broadcast_sd(u + c),
                                             _mm256_cvtps_pd(column)));
        };
        __m256d acc = _mm256_setzero_pd();
        size_t c = 0;
        for (; c + 4 <= d; c += 4) {
          __m128 x0 = _mm_loadu_ps(v0 + c0 + c);
          __m128 x1 = _mm_loadu_ps(v1 + c0 + c);
          __m128 x2 = _mm_loadu_ps(v2 + c0 + c);
          __m128 x3 = _mm_loadu_ps(v3 + c0 + c);
          _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
          acc = step(acc, c, x0);
          acc = step(acc, c + 1, x1);
          acc = step(acc, c + 2, x2);
          acc = step(acc, c + 3, x3);
        }
        for (; c < d; ++c) {
          acc = step(acc, c,
                     _mm_setr_ps(v0[c0 + c], v1[c0 + c], v2[c0 + c],
                                 v3[c0 + c]));
        }
        const __m128 rounded = _mm256_cvtpd_ps(acc);
        alignas(16) float dots[4];
        _mm_store_ps(dots, _mm_blendv_ps(rounded, quiet_nan,
                                         _mm_cmpunord_ps(rounded, rounded)));
        for (size_t j = 0; j < 4; ++j) o[j * out_stride + l] = dots[j];
      }
    }
  }
  MatchDotsScalar(user, items + r * item_stride, item_stride, n - r, levels,
                  d, out + r * out_stride, out_stride);
}

// One vector iteration handles indices i..i+3, which map exactly onto
// reduction lanes 0..3 — the same ownership as the scalar i % kReduceLanes
// schedule, so the merged sum is bitwise identical.
double DotAvx2(const float* x, const float* y, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d yd = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(xd, yd));
  }
  alignas(32) double lane[kReduceLanes];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    lane[i % kReduceLanes] += static_cast<double>(x[i]) * y[i];
  }
  return MergeLanes(lane);
}

double SquaredDistanceAvx2(const float* x, const float* y, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kReduceLanes <= n; i += kReduceLanes) {
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d yd = _mm256_cvtps_pd(_mm_loadu_ps(y + i));
    const __m256d d = _mm256_sub_pd(xd, yd);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lane[kReduceLanes];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - y[i];
    lane[i % kReduceLanes] += d * d;
  }
  return MergeLanes(lane);
}

constexpr Kernels kAvx2Kernels = {
    AccumulateAvx2, AxpyAvx2,      GemmBlockAvx2, TanhAvx2,
    LeakyReluAvx2,  MatchDotsAvx2, DotAvx2,       SquaredDistanceAvx2,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace internal
}  // namespace simd
}  // namespace hignn

#else  // !defined(__x86_64__)

namespace hignn {
namespace simd {
namespace internal {

const Kernels* GetAvx2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace hignn

#endif
