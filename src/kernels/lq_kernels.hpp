// Tile LQ kernels — exact row-wise mirrors of the QR kernels, used by the
// LQ steps interleaved in BIDIAG (column eliminations in the tile grid).
// Templated over the scalar type T in {float, double}.
//
//   GELQT  A -> (L, V, T)            factor square into (lower) triangle
//   UNMLQ  C := C op(Q)              apply GELQT's Q from the right
//   TSLQT  [L | A2] -> (L', V2, T)   zero square with triangle on the left
//   TSMLQ  [C1 | C2] := [.] op(Q)    apply TSLQT's Q
//   TTLQT  [L1 | L2] -> (L', V2, T)  zero triangle with triangle on the left
//   TTMLQ  [C1 | C2] := [.] op(Q)    apply TTLQT's Q
//
// Conventions follow LAPACK gelqf: Q = H_k ... H_1 with row reflectors, so
// Q^T = H_1 ... H_k = I - V^T T V (T upper triangular, forward row storage).
// Costs in units of nb^3/3 mirror Table I exactly (GELQT 4, UNMLQ 6,
// TSLQT 6, TSMLQ 12, TTLQT 2, TTMLQ 6).
//
// Like the QR kernels, these assume pre-validated, pre-scaled inputs —
// the drivers' hazard handling is documented in docs/ROBUSTNESS.md.
#pragma once

#include "lac/blas.hpp"
#include "lac/dense.hpp"

namespace tbsvd::kernels {

/// LQ of an m x n tile: L in the lower triangle, row reflectors above the
/// diagonal; T is ib x m (one triangle per row panel). Row panels are
/// factored by the recursive BLAS3 path (lac/qr_rec.hpp).
template <class T>
void gelqt(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib);

/// C := C Q^T (Trans::Yes) or C Q, with (V, T) from gelqt; C.n == V.n.
template <class T>
void unmlq(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
           MatrixViewT<T> C, int ib);

/// LQ of [A1 | A2] with A1 (n1 x n1) lower triangular, A2 (n1 x m2) full.
/// On exit A1 holds the new L, A2 holds V2 (full rows), T as above.
template <class T>
void tslqt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib);

/// [C1 | C2] := [C1 | C2] op(Q) with Q from tslqt; C1 (mc x n1) sits in the
/// pivot tile column, C2 (mc x m2) in the eliminated tile column.
template <class T>
void tsmlq(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);

/// LQ of [A1 | A2] with both tiles (n x n) lower triangular. On exit A2
/// holds V2 (lower trapezoidal rows: row i has support columns 0..i).
/// Each ib-panel is factored by the trapezoid-aware recursion
/// (lac/qr_rec.hpp ttlqf_rec), which produces the panel's full kb x kb T
/// triangle in one pass; the trailing update runs through the
/// support-masked BLAS3 apply (larfb_tt). Storage outside the triangular
/// supports — in A1 above L's diagonal as well as in A2 right of the V2
/// trapezoid — is neither read nor written.
///
/// Workspace contract: T must satisfy T.m >= min(ib, n) and T.n >= n
/// (validated up front, throws invalid_argument_error); the recursive
/// path writes only each panel's upper triangle, same as the level-2
/// reference. All scratch beyond T (larfb_tt's mr x kb workspace per
/// trailing apply and the recursion's merge/tau buffers) is thread_local
/// inside the kernels — one instance per scalar type — and grows on
/// demand; callers never size it.
template <class T>
void ttlqt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib);

/// [C1 | C2] := [C1 | C2] op(Q) with Q from ttlqt (triangular V2). C1, C2
/// and V2 must all have exactly k = V2.m columns (triangular-tile
/// contract); T needs T.m >= min(ib, k), T.n >= k (throws
/// invalid_argument_error otherwise). The per-panel applies share
/// larfb_tt's thread_local workspace (mc x kb scalars, grow-only) with
/// ttlqt.
template <class T>
void ttmlq(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);

}  // namespace tbsvd::kernels
