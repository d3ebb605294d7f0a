#include "batched/small_svd.hpp"

#include <algorithm>

#include "baseline/gebrd.hpp"
#include "common/check.hpp"
#include "lac/qr_rec.hpp"

namespace tbsvd::batched {

template <class T>
MatrixViewT<T> reduce_to_r(MatrixViewT<T> s, T* tfac, T* rbuf) {
  const int n = s.n;
  geqrf_rec<T>(s, MatrixViewT<T>(tfac, n, n, n));
  std::fill(rbuf, rbuf + static_cast<std::size_t>(n) * n, T(0));
  MatrixViewT<T> r(rbuf, n, n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = s(i, j);
  }
  return r;
}

template <class T>
std::vector<T> small_svd_values(MatrixViewT<T> s, T* tfac, T* rbuf,
                                const Bd2valOptions& opts, Bd2valInfo* info) {
  const int mw = s.m, nw = s.n;
  TBSVD_CHECK(mw >= nw && nw >= 1, "small_svd_values: need m >= n >= 1");
  TBSVD_CHECK(s.a != nullptr && s.ld >= mw && tfac != nullptr &&
                  rbuf != nullptr,
              "small_svd_values: invalid view or scratch");
  // Chan/Elemental switch ratio m >= 1.2 n.
  const MatrixViewT<T> r =
      5 * mw >= 6 * nw ? reduce_to_r<T>(s, tfac, rbuf) : s;
  std::vector<T> d, e;
  gebrd<T>(r, d, e);
  return bd2val<T>(std::move(d), std::move(e), opts, info);
}

#define TBSVD_INSTANTIATE_SMALL_SVD(T)                                    \
  template MatrixViewT<T> reduce_to_r<T>(MatrixViewT<T>, T*, T*);         \
  template std::vector<T> small_svd_values<T>(                            \
      MatrixViewT<T>, T*, T*, const Bd2valOptions&, Bd2valInfo*);

TBSVD_INSTANTIATE_SMALL_SVD(float)
TBSVD_INSTANTIATE_SMALL_SVD(double)

#undef TBSVD_INSTANTIATE_SMALL_SVD

}  // namespace tbsvd::batched
