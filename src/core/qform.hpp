// Explicit orthogonal factors of a BIDIAG factorization: after GE2BND the
// tiled matrix holds the band B implicitly plus all Householder vectors,
// and the T grids hold the block-reflector triangles. This module forms
//
//   Q  (m x m)  and  P  (n x n)  with  A0 = Q * B * P^T,
//
// by replaying the panel operations of the op stream on identity matrices.
// This is the building block for computing singular *vectors* on top of
// GE2BND (the paper's Section VII direction; their study covers values
// only). Supported for BIDIAG
// streams (R-BIDIAG's phase-boundary cleanup discards Householder data,
// exactly the storage complication Chan's algorithm is known for — see
// Section II). Templated over the scalar type T in {float, double}.
#pragma once

#include <vector>

#include "core/ge2bnd.hpp"
#include "lac/dense.hpp"
#include "tile/tile_matrix.hpp"

namespace tbsvd {

/// A factored GE2BND: the matrix (band + reflectors), the T grids, and the
/// op stream that produced them.
template <class T>
struct Ge2bndFactorsT {
  TileMatrixT<T> A;
  TFactorsT<T> t;
  std::vector<TileOp> ops;
  int ib = 32;
};

using Ge2bndFactors = Ge2bndFactorsT<double>;

/// Run BIDIAG on tiled A (consumed by value) keeping everything needed to
/// form Q and P. Uses the same executor as ge2bnd().
template <class T>
Ge2bndFactorsT<T> bidiag_factored(TileMatrixT<T> A, const Ge2bndOptions& opt);

/// Left factor Q (m x m, dense) with A0 = Q B P^T.
template <class T>
MatrixT<T> form_q(const Ge2bndFactorsT<T>& f);

/// Right factor transposed, P^T (n x n, dense).
template <class T>
MatrixT<T> form_pt(const Ge2bndFactorsT<T>& f);

}  // namespace tbsvd
