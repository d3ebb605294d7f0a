#include "baseline/chan.hpp"

#include <algorithm>

#include "band/bd2val.hpp"
#include "common/check.hpp"
#include "common/hazard.hpp"
#include "lac/blas.hpp"
#include "lac/qr_ref.hpp"

namespace tbsvd {

bool chan_uses_preqr(int m, int n, const ChanOptions& opts) {
  return static_cast<double>(m) >= opts.switch_ratio * n;
}

template <class T>
std::vector<double> chan_singular_values(ConstMatrixViewT<T> A,
                                         const ChanOptions& opts) {
  TBSVD_CHECK(A.m >= A.n, "chan_singular_values requires m >= n");
  TBSVD_CHECK(opts.switch_ratio >= 1.0 && opts.qr_nb >= 1,
              "chan_singular_values: need switch_ratio >= 1 and qr_nb >= 1");
  const int m = A.m, n = A.n;
  if (n == 0) return {};
  if (!chan_uses_preqr(m, n, opts)) {
    return gebrd_singular_values<T>(A, opts.gebrd);
  }
  // preQR: factor A = Q R, then bidiagonalize the n x n R. The factor copy
  // is pre-scaled into the safe range once, as dgesvd does
  // (docs/ROBUSTNESS.md), so the reflector norms cannot overflow; R
  // inherits that scale and GEBRD + BD2VAL run on it directly.
  MatrixT<T> W(m, n);
  copy<T>(A, W.view());
  const ScaledSolve<T> guard("chan_singular_values", W.view());
  std::vector<T> tau(n);
  geqrf<T>(W.view(), tau.data(), opts.qr_nb);
  MatrixT<T> R(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) R(i, j) = W(i, j);
  std::vector<T> d, e;
  gebrd<T>(R.view(), d, e, opts.gebrd);
  std::vector<T> svt = bd2val<T>(std::move(d), std::move(e));
  std::vector<double> sv(svt.begin(), svt.end());
  guard.unscale(sv);
  return sv;
}

#define TBSVD_INSTANTIATE_CHAN(T)                            \
  template std::vector<double> chan_singular_values<T>(      \
      ConstMatrixViewT<T>, const ChanOptions&);

TBSVD_INSTANTIATE_CHAN(float)
TBSVD_INSTANTIATE_CHAN(double)

#undef TBSVD_INSTANTIATE_CHAN

}  // namespace tbsvd
