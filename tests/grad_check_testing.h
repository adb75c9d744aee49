#ifndef HIGNN_TESTS_GRAD_CHECK_TESTING_H_
#define HIGNN_TESTS_GRAD_CHECK_TESTING_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

#include "nn/matrix.h"

namespace hignn {

// Result of a finite-difference gradient check.
struct GradCheckResult {
  double max_abs_error = 0.0;  // max |analytic - numeric| over elements
  double max_rel_error = 0.0;  // relative to max(|a|, |n|, 1e-8)
  bool passed = false;
};

// Verifies an analytic gradient against central finite differences.
// `loss_fn` evaluates the scalar loss as a function of the contents of
// `point` (it may capture and rebuild a Tape); `analytic_grad` is the
// gradient Tape::Backward produced at `point`. The nn suites validate
// every tape op end to end with it.
inline GradCheckResult CheckGradient(
    const std::function<double(const Matrix&)>& loss_fn, const Matrix& point,
    const Matrix& analytic_grad, double epsilon = 1e-3, double tol = 2e-2) {
  GradCheckResult result;
  Matrix probe = point;
  for (size_t i = 0; i < probe.size(); ++i) {
    const float original = probe.data()[i];
    probe.data()[i] = original + static_cast<float>(epsilon);
    const double plus = loss_fn(probe);
    probe.data()[i] = original - static_cast<float>(epsilon);
    const double minus = loss_fn(probe);
    probe.data()[i] = original;

    const double numeric = (plus - minus) / (2.0 * epsilon);
    const double analytic = analytic_grad.data()[i];
    const double abs_err = std::fabs(numeric - analytic);
    const double scale =
        std::max({std::fabs(numeric), std::fabs(analytic), 1e-8});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / scale);
  }
  // Accept if either the absolute or the relative error is small: float32
  // forward passes limit achievable precision.
  result.passed = result.max_abs_error < tol || result.max_rel_error < tol;
  return result;
}

}  // namespace hignn

#endif  // HIGNN_TESTS_GRAD_CHECK_TESTING_H_
