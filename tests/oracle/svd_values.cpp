#include <algorithm>
#include <cmath>
#include <limits>

#include "band/bd2val.hpp"
#include "baseline/gebd2.hpp"
#include "common/check.hpp"
#include "common/hazard.hpp"
#include "oracle/oracle.hpp"

namespace tbsvd {

template <class T>
std::vector<double> jacobi_singular_values(ConstMatrixViewT<T> A,
                                           int max_sweeps) {
  // Work on a double copy W with rows >= cols (float entries embed exactly).
  const bool flip = A.m < A.n;
  const int m = flip ? A.n : A.m;
  const int n = flip ? A.m : A.n;
  Matrix W(m, n);
  for (int j = 0; j < A.n; ++j) {
    for (int i = 0; i < A.m; ++i) {
      const double v = static_cast<double>(A(i, j));
      if (flip) {
        W.view()(j, i) = v;
      } else {
        W.view()(i, j) = v;
      }
    }
  }

  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = 10.0 * eps;
  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        double* cp = W.view().col(p);
        double* cq = W.view().col(q);
        const double app = dot(m, cp, 1, cp, 1);
        const double aqq = dot(m, cq, 1, cq, 1);
        const double apq = dot(m, cp, 1, cq, 1);
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq)) continue;
        converged = false;
        // Jacobi rotation diagonalizing [[app, apq], [apq, aqq]].
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (int i = 0; i < m; ++i) {
          const double wp = cp[i], wq = cq[i];
          cp[i] = c * wp - s * wq;
          cq[i] = s * wp + c * wq;
        }
      }
    }
  }

  std::vector<double> sv(n);
  for (int j = 0; j < n; ++j) sv[j] = nrm2(m, W.view().col(j), 1);
  std::sort(sv.begin(), sv.end(), std::greater<>());
  return sv;
}

template <class T>
std::vector<double> gebd2_singular_values(ConstMatrixViewT<T> A) {
  TBSVD_CHECK(A.m >= A.n, "gebd2_singular_values requires m >= n");
  if (A.n == 0) return {};
  MatrixT<T> W(A.m, A.n);
  copy<T>(A, W.view());
  const ScaledSolve<T> guard("gebd2_singular_values", W.view());
  std::vector<T> d, e;
  gebd2<T>(W.view(), d, e);
  std::vector<T> svt = bd2val<T>(std::move(d), std::move(e));
  std::vector<double> sv(svt.begin(), svt.end());
  guard.unscale(sv);
  return sv;
}

#define TBSVD_INSTANTIATE_SVD_ORACLES(T)                              \
  template std::vector<double> jacobi_singular_values<T>(             \
      ConstMatrixViewT<T>, int);                                      \
  template std::vector<double> gebd2_singular_values<T>(ConstMatrixViewT<T>);

TBSVD_INSTANTIATE_SVD_ORACLES(float)
TBSVD_INSTANTIATE_SVD_ORACLES(double)

#undef TBSVD_INSTANTIATE_SVD_ORACLES

}  // namespace tbsvd
