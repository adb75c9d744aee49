#ifndef HIGNN_NN_SIMD_H_
#define HIGNN_NN_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace hignn {
namespace simd {

/// \brief Vectorized inner kernels behind the Matrix/Tape hot paths, with
/// runtime ISA dispatch and a bitwise-identical scalar fallback.
///
/// Dispatch policy: the best available path is probed once on first use
/// (cpuid on x86_64, compile-target on arm64) and stored in a function
/// pointer table; `HIGNN_SIMD=off` (or `=scalar`) in the environment forces
/// the scalar path for parity checks. All raw intrinsics live in
/// simd_avx2.cc / simd_neon.cc — hignn_lint's `simd-guard` rule keeps them
/// out of the rest of the tree so the fallback cannot rot.
///
/// Determinism contract: every kernel here produces bitwise-identical
/// results on every path. Two rules make that possible:
///  1. No FMA. Vector kernels use separate multiply and add (the fused
///     single rounding of vfmadd* differs from the scalar mul+add double
///     rounding), and the build pins -ffp-contract=off so the compiler
///     cannot re-fuse either side.
///  2. Reductions use a fixed lane-strided schedule. Dot/SquaredDistance
///     accumulate into kReduceLanes double-precision partial sums — lane l
///     owns indices l, l+kReduceLanes, l+2*kReduceLanes, ... — merged in
///     fixed ascending lane order. The scalar reference implements the
///     identical schedule, so vector and scalar bits match exactly.
/// Elementwise kernels (Accumulate/Axpy/GemmBlock/Tanh/LeakyRelu) are
/// per-element independent: each output element sees the same op sequence
/// in the same order on every path, so rule 2 is not needed there. Nor is it
/// for MatchDots, whose every output is one ascending chain: vector paths
/// run one output per lane and never split a chain.

/// \brief Instruction-set path selected for the kernel table.
enum class IsaPath { kScalar, kAvx2, kNeon };

/// \brief Number of independent partial sums in the Dot/SquaredDistance
/// reduction schedule (4 doubles = one AVX2 ymm register).
inline constexpr size_t kReduceLanes = 4;

/// \brief Row-tile height of GemmBlock: callers pass mr <= kGemmRowTile.
inline constexpr size_t kGemmRowTile = 4;

/// \brief The path currently used by the kernels below.
IsaPath Active();

/// \brief The path the startup probe selected (environment override
/// applied). Active() == Best() unless a test forced a different path.
IsaPath Best();

/// \brief Lower-case name of the active path: "scalar", "avx2", "neon".
/// Recorded in BENCH_*.json envelopes for provenance.
const char* PathName();

/// \brief Test hook: switches the kernel table to `path` in-process so
/// parity tests can compare scalar and SIMD outputs bit for bit. Falls
/// back to kScalar when the requested path is not available on this
/// build/host. Not thread-safe: call between parallel phases only.
void ForcePathForTesting(IsaPath path);

/// \brief dst[i] += src[i] for i in [0, n).
void Accumulate(float* dst, const float* src, size_t n);

/// \brief dst[i] += alpha * src[i] for i in [0, n).
void Axpy(float* dst, float alpha, const float* src, size_t n);

/// \brief Register-blocked GEMM micro-kernel:
/// C[r][j] += sum_p A[r][p] * B[p][j] for r < mr (<= kGemmRowTile),
/// j < n, with p ascending and mul-then-add per element — the canonical
/// accumulation order every Matrix GEMM variant is defined by.
/// A[r][p] is a[r * lda + p * a_step]: a_step = 1 reads a row-major A,
/// and lda = 1 with a_step = the row length reads a row-major matrix
/// transposed, in place. `b` is kc x n with row stride ldb, `c` is mr x n
/// with row stride ldc. Each output element's chain lives in a register
/// for the whole p loop: an mr x 16 tile (two 8-wide vectors per row) on
/// AVX2, with masked lanes for the last n % 8 columns, and one scalar
/// accumulator per row and column for blocks narrower than 8.
void GemmBlock(size_t mr, size_t kc, size_t n, const float* a, size_t lda,
               size_t a_step, const float* b, size_t ldb, float* c,
               size_t ldc);

/// \brief x[i] <- tanh(x[i]) for i in [0, n). Every path runs a port of
/// glibc's flt-32 tanhf (fdlibm, with its 5-term expm1f polynomial), so
/// the bits depend neither on the ISA nor on the host libm; on glibc 2.36
/// they equal std::tanh for all 2^32 inputs (tools/hignn_tanh_sweep).
void Tanh(float* x, size_t n);

/// \brief x[i] <- slope * x[i] where x[i] < 0, for i in [0, n): the
/// LeakyReLU forward (slope 0 is ReLU). NaN and -0.0 fail the compare and
/// keep x; at slope 0 a negative x becomes 0 * x = -0.0.
void LeakyRelu(float* x, float slope, size_t n);

/// \brief The match dots of one user block against `n` item rows: for
/// r < n and l < levels,
///   out[r * out_stride + l] = float(sum over c ascending of
///       double(user[l * d + c]) * double(items[r * item_stride + l * d + c]))
/// with the sum starting from 0.0, a multiply then an add per step, and one
/// rounding to float at the end. A NaN dot is written as the quiet NaN of
/// std::numeric_limits<float>: which payload a multiply or an add keeps
/// when both operands are NaN follows operand order, which compilers do not
/// preserve, so no path carries payloads through. The AVX2 path runs the
/// chains of 4 rows in the 4 double lanes of a register, with the user
/// block widened to double once per call; fewer than 4 rows left take the
/// scalar chain. `out` may
/// lie in the item rows' buffer (AssembleFeatureRows writes the dots beside
/// the item blocks) but must share no float with them or with `user`.
void MatchDots(const float* user, const float* items, size_t item_stride,
               size_t n, size_t levels, size_t d, float* out,
               size_t out_stride);

/// \brief Lane-strided double-precision dot product of two float rows
/// (see the reduction schedule above).
double Dot(const float* x, const float* y, size_t n);

/// \brief Lane-strided double-precision squared Euclidean distance.
double SquaredDistance(const float* x, const float* y, size_t n);

namespace internal {

/// \brief One ISA's kernel implementations; selected once into a function
/// pointer table. Only simd.cc and the simd_*.cc ISA files define these.
struct Kernels {
  void (*accumulate)(float* dst, const float* src, size_t n);
  void (*axpy)(float* dst, float alpha, const float* src, size_t n);
  void (*gemm_block)(size_t mr, size_t kc, size_t n, const float* a,
                     size_t lda, size_t a_step, const float* b, size_t ldb,
                     float* c, size_t ldc);
  void (*tanh)(float* x, size_t n);
  void (*leaky_relu)(float* x, float slope, size_t n);
  void (*match_dots)(const float* user, const float* items,
                     size_t item_stride, size_t n, size_t levels, size_t d,
                     float* out, size_t out_stride);
  double (*dot)(const float* x, const float* y, size_t n);
  double (*squared_distance)(const float* x, const float* y, size_t n);
};

/// \brief ISA tables; null when the ISA is not compiled into this binary.
/// (Runtime support is probed separately by the dispatcher.)
const Kernels* GetAvx2Kernels();
const Kernels* GetNeonKernels();

/// \brief Scalar reference kernels — the semantics the SIMD paths must
/// reproduce bit for bit. Exposed so ISA files can reuse them for tails.
void AccumulateScalar(float* dst, const float* src, size_t n);
void AxpyScalar(float* dst, float alpha, const float* src, size_t n);
void GemmBlockScalar(size_t mr, size_t kc, size_t n, const float* a,
                     size_t lda, size_t a_step, const float* b, size_t ldb,
                     float* c, size_t ldc);
void TanhScalar(float* x, size_t n);
void LeakyReluScalar(float* x, float slope, size_t n);
void MatchDotsScalar(const float* user, const float* items,
                     size_t item_stride, size_t n, size_t levels, size_t d,
                     float* out, size_t out_stride);
double DotScalar(const float* x, const float* y, size_t n);
double SquaredDistanceScalar(const float* x, const float* y, size_t n);

// glibc flt-32 expm1f/tanhf (fdlibm) constants, shared by every Tanh port.
inline constexpr float kLn2Hi = 6.9313812256e-01f;      // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06f;      // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00f;     // 0x3fb8aa3b
inline constexpr float kExpm1Q1 = -3.3333335072e-02f;   // 0xbd088889
inline constexpr float kExpm1Q2 = 1.5873016091e-03f;    // 0x3ad0d0d1
inline constexpr float kExpm1Q3 = -7.9365076090e-05f;   // 0xb8a670cd
inline constexpr float kExpm1Q4 = 4.0082177293e-06f;    // 0x36867e54
inline constexpr float kExpm1Q5 = -2.0109921195e-07f;   // 0xb457edbb
// Bit patterns of |x| thresholds.
inline constexpr uint32_t kExpm1Tiny = 0x33000000;            // 2^-25
inline constexpr uint32_t kExpm1HalfLn2 = 0x3eb17218;         // 0.5 ln2
inline constexpr uint32_t kExpm1ThreeHalvesLn2 = 0x3f851592;  // 1.5 ln2
inline constexpr uint32_t kTanhTiny = 0x24000000;             // 2^-55
inline constexpr uint32_t kTanhOne = 0x3f800000;              // 1
inline constexpr uint32_t kTanhSaturate = 0x41b00000;         // 22
inline constexpr uint32_t kFloatInf = 0x7f800000;

/// \brief Fixed-order merge of the kReduceLanes partial sums:
/// ((lane[0] + lane[1]) + lane[2]) + lane[3]. Shared by every path.
inline double MergeLanes(const double* lane) {
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

}  // namespace internal

}  // namespace simd
}  // namespace hignn

#endif  // HIGNN_NN_SIMD_H_
