#include "baseline/chan.hpp"

#include <memory>

#include "batched/small_svd.hpp"
#include "common/check.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"

namespace tbsvd {

template <class T>
std::vector<double> chan_singular_values(ConstMatrixViewT<T> A) {
  TBSVD_CHECK(A.m >= A.n, "chan_singular_values requires m >= n");
  const int n = A.n;
  if (n == 0) return {};
  // The working copy is pre-scaled into the safe range once, as dgesvd does
  // (docs/ROBUSTNESS.md), so the reflector norms cannot overflow. The preQR
  // factors it in place and R inherits that scale.
  MatrixT<T> W(A.m, n);
  copy<T>(A, W.view());
  const ScaledSolve<T> guard("chan_singular_values", W.view());
  // Uninitialized on purpose: small_svd_values ignores the scratch's
  // contents, and zero-filling 2 n^2 entries cost ~8% of a square n = 512
  // solve (1 thread, Xeon 2.1 GHz).
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  const std::unique_ptr<T[]> tfac(new T[nn]);
  const std::unique_ptr<T[]> rbuf(new T[nn]);
  const std::vector<T> svt =
      batched::small_svd_values<T>(W.view(), tfac.get(), rbuf.get());
  std::vector<double> sv(svt.begin(), svt.end());
  guard.unscale(sv);
  return sv;
}

template std::vector<double> chan_singular_values<float>(
    ConstMatrixViewT<float>);
template std::vector<double> chan_singular_values<double>(
    ConstMatrixViewT<double>);

}  // namespace tbsvd
