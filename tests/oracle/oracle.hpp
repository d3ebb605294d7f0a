// Test oracles: independent implementations the tests and the kernel
// benches judge the library against. Built as the tbsvd_oracle target,
// never linked into libtbsvd.
//
//   jacobi_singular_values  one-sided Jacobi SVD, iterating in double
//   gebd2_singular_values   unblocked GEBD2 + BD2VAL (GEBRD's reference)
//   *_ref tile kernels      level-2 (geqr2/gelq2-style, per-column-support)
//                           formulations of the recursive BLAS3 kernels
#pragma once

#include <vector>

#include "lac/blas.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

/// Singular values of A (any shape), sorted descending. One-sided Jacobi
/// rotations on columns of A (or A^T when m < n) until convergence; float
/// input is promoted entry-wise (exact) before iterating, so the oracle's
/// accuracy does not degrade when judging the float pipeline. Not scale
/// safe: the column Gram entries over/underflow near 1e+-154.
template <class T>
std::vector<double> jacobi_singular_values(ConstMatrixViewT<T> A,
                                           int max_sweeps = 60);

/// Singular values of A (m >= n) through GEBD2 + BD2VAL, computed in T,
/// returned in double, behind the ScaledSolve guard.
template <class T>
std::vector<double> gebd2_singular_values(ConstMatrixViewT<T> A);

}  // namespace tbsvd

namespace tbsvd::kernels {

/// Level-2 panel factorizations (geqr2 + larft, gelq2-style row sweeps),
/// the pre-recursive formulation of geqrt / tsqrt / gelqt / tslqt.
template <class T>
void geqrt_ref(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib);
template <class T>
void tsqrt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib);
template <class T>
void gelqt_ref(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib);
template <class T>
void tslqt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib);

/// Per-column-support (QR) / per-row-support (LQ) gemv/axpy TT kernels,
/// the pre-BLAS3 formulation of ttqrt / ttmqr / ttlqt / ttmlq.
template <class T>
void ttqrt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib);
template <class T>
void ttmqr_ref(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
               ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);
template <class T>
void ttlqt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib);
template <class T>
void ttmlq_ref(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
               ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);

}  // namespace tbsvd::kernels
