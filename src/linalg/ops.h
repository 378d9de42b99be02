#pragma once

// Small dense operations on views: comparisons, axpy-style updates, and the
// dense solvers used by the ALS search (Cholesky on small Gram matrices).

#include <cassert>
#include <cmath>
#include <type_traits>
#include <vector>

#include "src/linalg/mat_view.h"

namespace fmm {

// max_ij |a(i,j) - b(i,j)|, taken in double; shapes must match.  Either
// argument may be a MatViewT or a ConstMatViewT (so neither can anchor the
// deduction of T); both must have the same element type.
template <typename ViewA, typename ViewB>
double max_abs_diff(const ViewA& a, const ViewB& b) {
  static_assert(std::is_same_v<std::decay_t<decltype(*a.data())>,
                               std::decay_t<decltype(*b.data())>>,
                "max_abs_diff: operands differ in element type");
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto* pa = a.row(i);
    const auto* pb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      const double d = std::fabs(static_cast<double>(pa[j]) - pb[j]);
      if (d > worst) worst = d;
    }
  }
  return worst;
}

// max_ij |a(i,j)|.
double max_abs(ConstMatView a);

// y += alpha * x (elementwise over equal-shaped views).
void axpy(double alpha, ConstMatView x, MatView y);

// y = alpha * x.
void scale_copy(double alpha, ConstMatView x, MatView y);

// Frobenius-norm relative error ||a-b||_F / max(||b||_F, tiny).
double rel_error_fro(ConstMatView a, ConstMatView b);

// Solves the symmetric positive (semi-)definite system G * x = rhs for
// multiple right-hand sides, in place, via Cholesky with diagonal jitter.
// G is n x n row-major, rhs is n x m row-major (overwritten with solution).
// Returns false if G is too ill-conditioned even after jitter.
bool solve_spd_inplace(std::vector<double>& gram, int n,
                       std::vector<double>& rhs, int nrhs);

}  // namespace fmm
