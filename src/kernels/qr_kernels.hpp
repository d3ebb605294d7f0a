// Tile QR kernels (PLASMA-style core kernels, hand-written), templated over
// the scalar type T in {float, double}:
//
//   GEQRT  A -> (V, R, T)           "factor square into triangle"
//   UNMQR  C := op(Q) C             "apply GEQRT's Q to a tile"
//   TSQRT  [R; A2] -> (V2, R', T)   "zero square with triangle on top"
//   TSMQR  [C1; C2] := op(Q) [.]    "apply TSQRT's Q"
//   TTQRT  [R1; R2] -> (V2, R', T)  "zero triangle with triangle on top"
//   TTMQR  [C1; C2] := op(Q) [.]    "apply TTQRT's Q"
//
// All follow LAPACK conventions: H = I - tau v v^T with v(0) = 1; block
// reflectors accumulated into an upper triangular T per internal panel of
// width ib (T stored ib x n, one triangle per panel, as in PLASMA).
//
// Costs in units of nb^3/3 flops (paper Table I): GEQRT 4, UNMQR 6,
// TSQRT 6, TSMQR 12, TTQRT 2, TTMQR 6. The TS kernels see full nb-length
// reflector tails; the TT kernels exploit triangular tails, which is where
// the 3x panel / 2x update savings come from.
//
// Kernels assume pre-validated, pre-scaled inputs: the drivers scan for
// NaN/Inf and scale extreme norms before any kernel runs, and carry named
// fault-injection sites for the hazard tier (docs/ROBUSTNESS.md).
#pragma once

#include "lac/blas.hpp"
#include "lac/dense.hpp"

namespace tbsvd::kernels {

/// QR of an m x n tile. On exit A holds R (upper) and V (below diagonal);
/// T (ib x n, ld >= ib) holds the panel T triangles. 1 <= ib <= n.
/// Panels are factored by the recursive BLAS3 path (lac/qr_rec.hpp), which
/// also produces each panel's T directly (no separate larft pass).
template <class T>
void geqrt(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib);

/// C := Q^T C (Trans::Yes) or Q C, with (V, T) from geqrt(A) where V is the
/// whole tile A (reflectors below the diagonal, k = min(m, n)).
template <class T>
void unmqr(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
           MatrixViewT<T> C, int ib);

/// QR of [A1; A2] where A1 (n x n) is upper triangular and A2 (m2 x n) is
/// full. On exit A1 holds the new R, A2 holds V2 (full columns), T as above.
template <class T>
void tsqrt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib);

/// [C1; C2] := op(Q) [C1; C2] with Q from tsqrt: C1 is the tile in the
/// pivot row (n x nc), C2 the tile in the eliminated row (m2 x nc).
template <class T>
void tsmqr(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);

/// QR of [A1; A2] where both A1 and A2 (n x n) are upper triangular.
/// On exit A1 holds the new R, A2 holds V2 (upper trapezoidal columns:
/// column j has support rows 0..j), T as above. Each ib-panel is factored
/// by the trapezoid-aware recursion (lac/qr_rec.hpp ttqrf_rec), which
/// produces the panel's full kb x kb T triangle in one pass; the trailing
/// update runs through the support-masked BLAS3 apply (larfb_tt).
/// Storage outside the triangular supports — in A1 below R's diagonal as
/// well as in A2 below the V2 trapezoid — is neither read nor written.
///
/// Workspace contract: T must satisfy T.m >= min(ib, n) and T.n >= n
/// (validated up front, throws invalid_argument_error); the recursive
/// path writes only each panel's upper triangle, same as the level-2
/// reference. All scratch beyond T (the larfb_tt workspace of
/// nc x kb scalars per trailing apply and the recursion's merge/tau
/// buffers) is thread_local inside the kernels — one instance per scalar
/// type — and grows on demand; callers never size it.
template <class T>
void ttqrt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib);

/// [C1; C2] := op(Q) [C1; C2] with Q from ttqrt (triangular V2). C1, C2 and
/// V2 must all have exactly k = V2.n rows (the triangular-tile contract);
/// T needs T.m >= min(ib, k), T.n >= k (throws invalid_argument_error
/// otherwise). The per-panel applies share larfb_tt's thread_local
/// workspace (nc x kb scalars, grow-only) with ttqrt.
template <class T>
void ttmqr(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib);

/// Leading-order flop counts (for GFlop/s reporting in benches).
constexpr double flops_geqrt(double m, double n) {
  return 2.0 * m * n * n - (2.0 / 3.0) * n * n * n;
}
constexpr double flops_unmqr(double m, double n, double k) {
  return 4.0 * m * n * k - 2.0 * n * k * k;  // larfb-style, V m x k
}
constexpr double flops_tsqrt(double m2, double n) {
  return 2.0 * m2 * n * n;
}
constexpr double flops_tsmqr(double m2, double n, double k) {
  return 4.0 * m2 * n * k;
}
constexpr double flops_ttqrt(double n) { return (2.0 / 3.0) * n * n * n; }
constexpr double flops_ttmqr(double n, double nc) { return 2.0 * n * n * nc; }

}  // namespace tbsvd::kernels
