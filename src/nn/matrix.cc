#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/simd.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace hignn {

namespace {

// Column-panel width for the j loops: 256 floats (1 KiB) keeps the streamed
// B panel and the output row resident in L1 together.
constexpr size_t kColBlock = 256;

// Depth-panel height: the row tiles of a band reuse one 256-row slice of
// A and B from cache instead of streaming the whole depth once per tile
// (MatMulAT's depth is the batch). C carries each element's running sum
// from one panel to the next, so p still ascends in one chain.
constexpr size_t kDepthBlock = 256;

// Every GEMM partitions work so each output element is produced by exactly
// one chunk with a chunk-independent ascending-p accumulation order, so the
// parallel and sequential paths are bitwise identical and granularity
// decisions (ThreadPool::ParallelForWork) can safely depend on the live
// thread count. The SIMD micro-kernel keeps the same per-element op chain
// as the scalar one (simd.h), so ISA choice never changes the bits either.
//
// Runs the register/cache-blocked GEMM over output rows [lo, hi):
// out[i][j] += sum_p A[i][p] * b[p][j] for p in [p_lo, p_hi), with A[i][p]
// = a[i * lda + p * a_step] (see simd::GemmBlock), the register tile
// inside simd::GemmBlock, a kColBlock j panel keeping B slices L1-resident
// and a kDepthBlock p panel keeping A and B slices cache-resident across
// tiles.
void GemmRowBand(const float* a, size_t lda, size_t a_step, size_t p_lo,
                 size_t p_hi, const Matrix& b, Matrix& out, size_t lo,
                 size_t hi) {
  const size_t n = b.cols();
  for (size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const size_t jw = std::min(n - j0, kColBlock);
    for (size_t p0 = p_lo; p0 < p_hi; p0 += kDepthBlock) {
      const size_t pw = std::min(p_hi - p0, kDepthBlock);
      for (size_t i0 = lo; i0 < hi; i0 += simd::kGemmRowTile) {
        const size_t mr = std::min(simd::kGemmRowTile, hi - i0);
        simd::GemmBlock(mr, pw, jw, a + i0 * lda + p0 * a_step, lda, a_step,
                        b.row(p0) + j0, n, out.row(i0) + j0, n);
      }
    }
  }
}

// GemmRowBand over a row-major `a`, all of its columns.
void GemmRowBand(const Matrix& a, const Matrix& b, Matrix& out, size_t lo,
                 size_t hi) {
  GemmRowBand(a.data(), a.cols(), 1, 0, a.cols(), b, out, lo, hi);
}

// The leading columns whose bytes every row of `a` shares with row 0.
// Bytes, not float ==, which equates +0 and -0 (whose products can differ
// in sign) and fails on NaN.
size_t SharedLeadingColumns(const Matrix& a) {
  const float* first = a.row(0);
  size_t shared = a.cols();
  for (size_t i = 1; i < a.rows() && shared > 0; ++i) {
    const float* row = a.row(i);
    if (std::memcmp(row, first, shared * sizeof(float)) == 0) continue;
    size_t p = 0;
    while (std::memcmp(row + p, first + p, sizeof(float)) == 0) ++p;
    shared = p;
  }
  return shared;
}

// One tick per GEMM call on the counter matching the live dispatch path.
void CountGemmDispatch() {
  static obs::Counter& took_simd =
      obs::MetricsRegistry::Global().GetCounter("kernel.gemm.simd");
  static obs::Counter& took_scalar =
      obs::MetricsRegistry::Global().GetCounter("kernel.gemm.scalar");
  (simd::Active() == simd::IsaPath::kScalar ? took_scalar : took_simd).Add(1);
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  HIGNN_CHECK_EQ(data_.size(), rows_ * cols_);
}

void Matrix::Fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::FillNormal(Rng& rng, float stddev) {
  for (float& x : data_) x = static_cast<float>(rng.Normal(0.0, stddev));
}

void Matrix::FillUniform(Rng& rng, float lo, float hi) {
  for (float& x : data_) x = static_cast<float>(rng.Uniform(lo, hi));
}

void Matrix::Add(const Matrix& other) {
  HIGNN_CHECK_EQ(rows_, other.rows_);
  HIGNN_CHECK_EQ(cols_, other.cols_);
  simd::Accumulate(data_.data(), other.data_.data(), data_.size());
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  HIGNN_CHECK_EQ(rows_, other.rows_);
  HIGNN_CHECK_EQ(cols_, other.cols_);
  simd::Axpy(data_.data(), alpha, other.data_.data(), data_.size());
}

void Matrix::Scale(float alpha) {
  for (float& x : data_) x *= alpha;
}

void Matrix::SetRow(size_t r, const std::vector<float>& src) {
  HIGNN_CHECK_LT(r, rows_);
  HIGNN_CHECK_EQ(src.size(), cols_);
  float* dst = row(r);
  for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
}

double Matrix::Sum() const {
  double total = 0.0;
  for (float x : data_) total += x;
  return total;
}

double Matrix::SquaredNorm() const {
  double total = 0.0;
  for (float x : data_) total += static_cast<double>(x) * x;
  return total;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  HIGNN_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return out;
  CountGemmDispatch();
  GlobalThreadPool().ParallelForWork(0, m, m * k * n,
                                     [&](size_t lo, size_t hi) {
                                       GemmRowBand(a, b, out, lo, hi);
                                     });
  return out;
}

Matrix MatMulSerial(const Matrix& a, const Matrix& b) {
  HIGNN_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  if (out.empty() || a.cols() == 0) return out;
  CountGemmDispatch();
  // Every row's chain over the shared columns is row 0's, op for op: run
  // it once, start every row from it, and continue each chain over the
  // rest. With nothing shared this is the plain band over all columns.
  const size_t shared = SharedLeadingColumns(a);
  GemmRowBand(a.data(), a.cols(), 1, 0, shared, b, out, 0, 1);
  for (size_t i = 1; i < out.rows(); ++i) {
    std::copy(out.row(0), out.row(0) + out.cols(), out.row(i));
  }
  GemmRowBand(a.data(), a.cols(), 1, shared, a.cols(), b, out, 0, a.rows());
  return out;
}

Matrix MatMulBT(const Matrix& a, const Matrix& b) {
  HIGNN_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  if (m == 0 || k == 0 || n == 0) return out;
  CountGemmDispatch();
  // Transposing B up front turns a row-times-row dot kernel into the shared
  // blocked GEMM; Transpose copies bits verbatim, and out[i][j] still sums
  // a[i][p] * b[j][p] as a float accumulator ascending in p (the register
  // tile starts from out's zeros exactly as the old `float acc = 0` did).
  const Matrix bt = Transpose(b);
  GlobalThreadPool().ParallelForWork(0, m, m * k * n,
                                     [&](size_t lo, size_t hi) {
                                       GemmRowBand(a, bt, out, lo, hi);
                                     });
  return out;
}

Matrix MatMulAT(const Matrix& a, const Matrix& b) {
  HIGNN_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();  // = out rows
  const size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return out;
  CountGemmDispatch();
  if (n == 1) {
    // A column b (the scorer's last-layer gradient): out^T = b^T A is one
    // row-vector GEMM straight over A. out[i] still sums b[p] * a[p][i]
    // ascending in p, and the product commutes exactly.
    for (size_t j0 = 0; j0 < k; j0 += kColBlock) {
      simd::GemmBlock(1, m, std::min(k - j0, kColBlock), b.data(), m, 1,
                      a.data() + j0, k, out.data() + j0, k);
    }
    return out;
  }
  // Output row i is column i of A, which GemmBlock reads in place (row
  // stride 1, column stride k): no transposed or packed copy, and p still
  // ascends globally for every output element — the same chain as the
  // seed's p-outer scalar loop.
  GlobalThreadPool().ParallelForWork(0, k, m * k * n,
                                     [&](size_t lo, size_t hi) {
                                       GemmRowBand(a.data(), 1, k, 0, m, b,
                                                   out, lo, hi);
                                     });
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m == 0 || n == 0) return out;
  // 32x32 tiles turn the column-strided writes into short cache-resident
  // bursts; each source row belongs to exactly one chunk. The flop estimate
  // counts one move per element: a transpose is pure bandwidth, so it needs
  // far more elements than a GEMM before a pool dispatch pays off.
  constexpr size_t kTile = 32;
  float* dst = out.data();
  GlobalThreadPool().ParallelForWork(0, m, m * n, [&](size_t lo, size_t hi) {
    for (size_t r0 = lo; r0 < hi; r0 += kTile) {
      const size_t r1 = std::min(hi, r0 + kTile);
      for (size_t c0 = 0; c0 < n; c0 += kTile) {
        const size_t c1 = std::min(n, c0 + kTile);
        for (size_t r = r0; r < r1; ++r) {
          const float* src = a.row(r);
          for (size_t c = c0; c < c1; ++c) dst[c * m + r] = src[c];
        }
      }
    }
  });
  return out;
}

double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                          size_t rb) {
  HIGNN_CHECK_EQ(a.cols(), b.cols());
  return simd::SquaredDistance(a.row(ra), b.row(rb), a.cols());
}

double RowDot(const Matrix& a, size_t ra, const Matrix& b, size_t rb) {
  HIGNN_CHECK_EQ(a.cols(), b.cols());
  return simd::Dot(a.row(ra), b.row(rb), a.cols());
}

bool AllClose(const Matrix& a, const Matrix& b, float tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

bool AllFinite(const Matrix& a) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a.data()[i])) return false;
  }
  return true;
}

}  // namespace hignn
