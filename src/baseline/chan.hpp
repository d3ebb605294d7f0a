// Chan's algorithm (preQR + bidiagonalization of R), the trick Elemental
// applies automatically when m >= 1.2 n (Section VI.B). Serves as the
// "Elemental" stand-in baseline; below the switch ratio it runs plain
// GEBRD. Templated over the scalar type T in {float, double}.
#pragma once

#include <vector>

#include "lac/dense.hpp"

namespace tbsvd {

/// Singular values of A (m >= n) via preQR (when 5m >= 6n) + GEBRD +
/// BD2VAL, staged by batched::small_svd_values.
template <class T>
std::vector<double> chan_singular_values(ConstMatrixViewT<T> A);

}  // namespace tbsvd
