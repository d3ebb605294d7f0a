// GEBD2: unblocked Golub-Kahan bidiagonalization (LAPACK xGEBD2), the
// Level-2 BLAS baseline discussed in Section II. 4mn^2 - 4n^3/3 flops, all
// in memory-bound matrix-vector work — this is what makes ScaLAPACK/MKL's
// one-stage GE2BD the paper's whipping boy. Templated over the scalar
// type T in {float, double}.
#pragma once

#include <vector>

#include "lac/dense.hpp"

namespace tbsvd {

/// Reduce dense A (m x n, m >= n) to upper bidiagonal form in place.
/// Returns the bidiagonal: d (n) and e (n-1). The Householder vectors are
/// left in A (not needed for singular values).
template <class T>
void gebd2(MatrixViewT<T> A, std::vector<T>& d, std::vector<T>& e);

}  // namespace tbsvd
