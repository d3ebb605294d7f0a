// BND2BD: reduce an upper-band matrix (bandwidth ku = nb) to upper
// bidiagonal form with a Householder bulge chase — length-nb reflectors on
// cache-resident band blocks, in the order of PLASMA's core_xgbtype{1,2,3}cb
// (the role PLASMA's multithreaded BND2BD plays in the paper; this stage is
// memory-bound and was executed on a single node even in the paper's
// distributed runs). Templated over the scalar type T in {float, double}.
#pragma once

#include <vector>

#include "band/band_matrix.hpp"

namespace tbsvd {

/// Upper bidiagonal matrix: diagonal d (n) and superdiagonal e (n-1).
template <class T>
struct BidiagonalT {
  std::vector<T> d;
  std::vector<T> e;
};

using Bidiagonal = BidiagonalT<double>;

/// Reduce B (kl = 0, any ku >= 0) to upper bidiagonal form by orthogonal
/// two-sided transformations, so the singular values are preserved. The
/// input is copied into working storage with room for the bulges.
/// About 8 n^2 ku flops.
template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B);

}  // namespace tbsvd
