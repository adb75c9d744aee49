#ifndef HIGNN_NN_MATRIX_H_
#define HIGNN_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace hignn {

/// \brief Dense row-major float32 matrix — the numeric workhorse under the
/// autograd tape, GraphSAGE, K-means and word2vec.
///
/// Deliberately minimal: contiguous storage, explicit shapes, checked
/// accessors, and the handful of BLAS-like kernels the models need. The
/// GEMM/transpose kernels fan out over GlobalThreadPool() in row blocks
/// above a small-size cutoff; each output element is produced by exactly
/// one thread with a fixed accumulation order, so results are bitwise
/// identical for any thread count.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// \brief Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// \brief From explicit data (size must equal rows*cols).
  Matrix(size_t rows, size_t cols, std::vector<float> data);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    HIGNN_CHECK_LT(r, rows_);
    HIGNN_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    HIGNN_CHECK_LT(r, rows_);
    HIGNN_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  /// \brief Sets every element to `value`.
  void Fill(float value);

  /// \brief Fills with N(0, stddev) draws.
  void FillNormal(Rng& rng, float stddev = 1.0f);

  /// \brief Fills with U(lo, hi) draws.
  void FillUniform(Rng& rng, float lo, float hi);

  /// \brief this += other (same shape).
  void Add(const Matrix& other);

  /// \brief this += alpha * other (same shape).
  void Axpy(float alpha, const Matrix& other);

  /// \brief this *= alpha.
  void Scale(float alpha);

  /// \brief Copies `src` into row r.
  void SetRow(size_t r, const std::vector<float>& src);

  /// \brief Sum of all elements.
  double Sum() const;

  /// \brief Frobenius norm squared.
  double SquaredNorm() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// \brief out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// \brief MatMul on the calling thread only, for callers that bring their
/// own parallelism (one serving request per handler thread) and must not
/// contend for the pool. The leading columns whose bytes every row shares
/// with row 0 (a one-user batch's user block) are multiplied once, for
/// row 0, and every row's accumulator starts from that partial. Each
/// element still sees MatMul's ascending-p mul-then-add chain, so the
/// bits equal MatMul's.
Matrix MatMulSerial(const Matrix& a, const Matrix& b);

/// \brief out = a * b^T. Shapes: (m x k) * (n x k) -> (m x n).
Matrix MatMulBT(const Matrix& a, const Matrix& b);

/// \brief out = a^T * b. Shapes: (k x m) * (k x n) -> (m x n).
Matrix MatMulAT(const Matrix& a, const Matrix& b);

/// \brief Transposed copy.
Matrix Transpose(const Matrix& a);

/// \brief Squared Euclidean distance between row `ra` of a and row `rb`
/// of b (equal column counts required).
double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                          size_t rb);

/// \brief Dot product between row `ra` of a and row `rb` of b.
double RowDot(const Matrix& a, size_t ra, const Matrix& b, size_t rb);

/// \brief True if shapes match and elements differ by at most `tol`.
bool AllClose(const Matrix& a, const Matrix& b, float tol = 1e-5f);

/// \brief True if every element is finite (no NaN / ±inf). Used by the
/// numerical-health guards in the training loop.
bool AllFinite(const Matrix& a);

}  // namespace hignn

#endif  // HIGNN_NN_MATRIX_H_
