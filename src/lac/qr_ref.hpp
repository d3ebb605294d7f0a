// Reference dense QR factorization (LAPACK geqr2/geqrf/orgqr-style),
// templated over the scalar type T in {float, double}. Used by the
// test-matrix generator (random orthogonal factors) and by the test
// oracles' level-2 reference kernels.
#pragma once

#include "lac/blas.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

/// Unblocked Householder QR: A (m x n) is overwritten with R in the upper
/// triangle and the reflectors below the diagonal; tau has min(m,n) entries.
template <class T>
void geqr2(MatrixViewT<T> A, T* tau);

/// Blocked Householder QR (panel width nb) via larft/larfb.
template <class T>
void geqrf(MatrixViewT<T> A, T* tau, int nb = 32);

/// Form the leading ncols columns of Q (m x ncols) from a geqr2/geqrf
/// factorization with k reflectors. Q must be m x ncols with ncols >= k.
template <class T>
void orgqr(ConstMatrixViewT<T> A, const T* tau, int k, MatrixViewT<T> Q);

}  // namespace tbsvd
