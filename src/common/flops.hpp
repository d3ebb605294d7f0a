// Floating-point operation counts used for GFlop/s reporting.
//
// The paper (Section VI.B) normalizes all GE2BND / GE2VAL rates by the
// classical bidiagonalization operation count 4n^2(m - n/3) (LAPACK
// installation guide, Blackford & Dongarra), *also* for R-BIDIAG, so that
// curves are directly comparable. We follow the same convention.
#pragma once

#include <cstdint>

namespace tbsvd {

/// Flops of the standard full->bidiagonal reduction (GE2BD/GE2BND), m >= n.
constexpr double flops_ge2bnd(double m, double n) noexcept {
  return 4.0 * n * n * (m - n / 3.0);
}

/// Actual flops of R-bidiagonalization: QR(m,n) + BIDIAG(n,n)
/// (2n^2(m + n), Golub & Van Loan p.284). Only used in ablation output;
/// performance plots use flops_ge2bnd for both, as in the paper.
constexpr double flops_rbidiag(double m, double n) noexcept {
  return 2.0 * n * n * (m + n);
}

/// Flops of a blocked QR factorization of an m x n matrix, m >= n.
constexpr double flops_geqrf(double m, double n) noexcept {
  return 2.0 * n * n * (m - n / 3.0);
}

/// Nominal flops of the band->bidiagonal stage for an n x n band of width
/// nb, kept fixed so GF/s figures stay comparable across implementations.
/// The Householder bulge chase actually performs about 8 n^2 nb.
constexpr double flops_bnd2bd(double n, double nb) noexcept {
  return 6.0 * n * n * nb;
}

/// Table I unit: one time unit == nb^3/3 flops.
constexpr double kernel_unit_flops(double nb) noexcept {
  return nb * nb * nb / 3.0;
}

}  // namespace tbsvd
