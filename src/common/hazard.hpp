// Numerical-hazard detection and LAPACK-style safe scaling, templated over
// the storage scalar T in {float, double}.
//
// Every singular-value driver runs the dgesvd/dlascl protocol through one
// ScaledSolve<T>: scan the working storage once (NaN/Inf throws
// numerical_hazard_error immediately, since iterating on non-finite data
// can spin forever), scale it in place into [svd_safe_min<T>(),
// svd_safe_max<T>()] when its max-norm falls outside, and unscale the
// singular values on exit. That keeps every intermediate quantity (norms,
// Gram entries, shifts) representable without overflow or destructive
// underflow. The bounds are numeric_limits<T>-derived, so the float path
// gets float-sized safety margins (smlnum ~ 9.1e-13, bignum ~ 1.1e12)
// instead of the double ones. Scaling is exact up to one rounding per
// entry, so scaled solves carry full relative accuracy; drivers flag it in
// their SvdInfo. See docs/ROBUSTNESS.md for the full contract.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

/// One-pass scan result: finiteness and the max absolute entry (held in
/// double regardless of the scanned precision — float magnitudes embed
/// exactly).
struct ExtremeScan {
  bool finite = true;
  double amax = 0.0;
};

template <class T>
[[nodiscard]] ExtremeScan scan_extremes(const T* x, std::size_t n) noexcept;
template <class T>
[[nodiscard]] ExtremeScan scan_extremes(ConstMatrixViewT<T> A) noexcept;

template <class T>
[[nodiscard]] bool all_finite(const T* x, std::size_t n) noexcept;
template <class T>
[[nodiscard]] bool all_finite(ConstMatrixViewT<T> A) noexcept;

/// Safe-range bounds for SVD reductions in precision T: smlnum =
/// sqrt(safe_min)/eps and bignum = 1/smlnum, exactly LAPACK dgesvd's
/// choices (~6.7e-138 / 1.5e137 in IEEE double; ~9.1e-13 / 1.1e12 in IEEE
/// float). Norms inside [smlnum, bignum] square without hazard. The
/// defaulted parameter keeps the historical double call sites unchanged.
template <class T = double>
[[nodiscard]] double svd_safe_min() noexcept;
template <class T = double>
[[nodiscard]] double svd_safe_max() noexcept;

/// Target norm for amax: svd_safe_min<T>() if amax underflows the safe
/// range, svd_safe_max<T>() if it overflows, amax itself (no scaling)
/// otherwise. amax must be finite and > 0.
template <class T = double>
[[nodiscard]] double svd_safe_target(double amax) noexcept;

/// x := x * (cto/cfrom) computed dlascl-style: the multiplier is applied in
/// over/underflow-free steps, never forming a ratio outside T's
/// representable range (the chip-away unit is numeric_limits<T>::min, so a
/// float array is never multiplied through a denormal-crushing double
/// step). cfrom must be nonzero and finite, cto finite; both are given in
/// double but must be representable in T.
template <class T>
void scale_stepwise(T* x, std::size_t n, double cfrom, double cto);
template <class T>
void scale_stepwise(MatrixViewT<T> A, double cfrom, double cto);
template <class T>
void scale_stepwise(std::vector<T>& x, double cfrom, double cto);

/// Per-solve diagnostics: what the hazard-hardening layer did. status is
/// Ok on the clean path and Degraded when a fallback produced the (still
/// correct) result; hazards that cannot be absorbed throw instead.
struct SvdInfo {
  Status status = Status::Ok;
  bool scaled = false;       ///< safe pre-scaling was applied
  double scale_from = 0.0;   ///< input max-norm (valid when scaled)
  double scale_to = 0.0;     ///< safe-range target norm (valid when scaled)
  long long qr_iterations = 0;   ///< BD2VAL inner QR-iteration steps
  bool bisection_fallback = false;  ///< BD2VAL degraded to Sturm bisection

  /// True when the returned values are trustworthy — a flagged degraded
  /// solve (e.g. the Sturm bisection fallback) still produced a correct
  /// spectrum, just off the primary path.
  [[nodiscard]] bool ok() const noexcept {
    return status == Status::Ok || status == Status::Degraded;
  }
};

/// The hazard guard of one singular-value solve. Construction scans the
/// storage the driver works on (its copy, its staging buffer, or the tiles
/// gesvd_values consumes in place), throws
/// numerical_hazard_error("<who>: non-finite entry in input") on NaN/Inf,
/// and scales that storage in place to svd_safe_target<T>(amax) when amax
/// leaves the safe range. unscale() maps the computed values back.
template <class T>
class ScaledSolve {
 public:
  ScaledSolve(const char* who, MatrixViewT<T> work)
      : ScaledSolve(who, &work, 1) {}
  /// Working storage held in several blocks (the tiles of a TileMatrixT).
  ScaledSolve(const char* who, const std::vector<MatrixViewT<T>>& blocks)
      : ScaledSolve(who, blocks.data(), blocks.size()) {}

  /// Undoes the scaling on the singular values of the scaled storage and,
  /// when scaling was applied, records it in info (scaled, scale_from =
  /// the input's amax, scale_to = the target).
  void unscale(std::vector<double>& values, SvdInfo* info = nullptr) const;

  /// The finite-only check, for drivers that need no scaling (QR, least
  /// squares): throws exactly as the constructor does on NaN/Inf.
  static void require_finite(const char* who, ConstMatrixViewT<T> A);

 private:
  ScaledSolve(const char* who, const MatrixViewT<T>* blocks,
              std::size_t count);
  [[nodiscard]] bool scaled() const noexcept { return target_ != amax_; }

  double amax_ = 0.0;
  double target_ = 0.0;
};

}  // namespace tbsvd
