#include "lac/qr_ref.hpp"

#include <algorithm>
#include <vector>

#include "lac/blas.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

template <class T>
void geqr2(MatrixViewT<T> A, T* tau) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  std::vector<T> work(std::max(m, n));
  for (int j = 0; j < k; ++j) {
    tau[j] = larfg<T>(m - j, A(j, j), &A(std::min(j + 1, m - 1), j), 1);
    if (j < n - 1 && tau[j] != T(0)) {
      const T ajj = A(j, j);
      A(j, j) = T(1);
      larf_left<T>(tau[j], &A(j, j), 1, A.block(j, j + 1, m - j, n - j - 1),
                   work.data());
      A(j, j) = ajj;
    }
  }
}

template <class T>
void geqrf(MatrixViewT<T> A, T* tau, int nb) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(nb >= 1, "geqrf: nb must be >= 1");
  MatrixT<T> Tf(nb, nb);
  MatrixT<T> work;
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    MatrixViewT<T> panel = A.block(j, j, m - j, jb);
    geqr2<T>(panel, tau + j);
    if (j + jb < n) {
      larft<T>(panel, tau + j, Tf.view());
      larfb<T>(Side::Left, Trans::Yes, panel,
               ConstMatrixViewT<T>{Tf.data(), jb, jb, Tf.rows()},
               A.block(j, j + jb, m - j, n - j - jb), work);
    }
  }
}

template <class T>
void orgqr(ConstMatrixViewT<T> A, const T* tau, int k, MatrixViewT<T> Q) {
  const int m = Q.m, ncols = Q.n;
  TBSVD_CHECK(ncols >= k && A.m == m, "orgqr shape mismatch");
  for (int j = 0; j < ncols; ++j) {
    T* qj = Q.col(j);
    for (int i = 0; i < m; ++i) qj[i] = T(0);
    Q(j, j) = T(1);
  }
  std::vector<T> v(m), work(std::max(m, ncols));
  // Apply H_1 ... H_k to I, backward: Q := H_1 (H_2 (... H_k I)).
  for (int j = k - 1; j >= 0; --j) {
    v[0] = T(1);
    for (int i = 1; i < m - j; ++i) v[i] = A(j + i, j);
    larf_left<T>(tau[j], v.data(), 1, Q.block(j, j, m - j, ncols - j),
                 work.data());
  }
}

#define TBSVD_INSTANTIATE_QR_REF(T)                                          \
  template void geqr2<T>(MatrixViewT<T>, T*);                                \
  template void geqrf<T>(MatrixViewT<T>, T*, int);                           \
  template void orgqr<T>(ConstMatrixViewT<T>, const T*, int, MatrixViewT<T>);

TBSVD_INSTANTIATE_QR_REF(float)
TBSVD_INSTANTIATE_QR_REF(double)

#undef TBSVD_INSTANTIATE_QR_REF

}  // namespace tbsvd
