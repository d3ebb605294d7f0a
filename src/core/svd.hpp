// GE2VAL: singular values of a general dense matrix via the paper's
// pipeline GE2BND (tiled, parallel) + BND2BD (bulge chasing) + BD2VAL
// (dqds on the bidiagonal). Templated over the scalar type T in {float,
// double}; singular values are always returned in double (float results
// embed exactly), while every pipeline stage runs in T arithmetic.
//
// Hazard contract (docs/ROBUSTNESS.md): the tiles are guarded by
// ScaledSolve<T> (common/hazard.hpp) up front — NaN/Inf throws
// numerical_hazard_error; a max-norm outside the per-precision safe range
// is scaled into it before the reduction (LAPACK dgesvd/dlascl protocol)
// and the singular values are unscaled on exit, flagged in SvdInfo. A
// dqds stall in BD2VAL degrades to Sturm bisection
// (Status::Degraded) instead of failing.
#pragma once

#include <vector>

#include "band/bd2val.hpp"
#include "common/hazard.hpp"
#include "core/ge2bnd.hpp"
#include "lac/dense.hpp"

namespace tbsvd {

struct GesvdOptions {
  Ge2bndOptions ge2bnd;
  /// Tile size used when tiling a dense input; 0 resolves to the active
  /// calibration's tuned nb (capped near the problem size so small inputs
  /// never pad up to a large tuned tile) and to the historical 64 when no
  /// calibration is loaded.
  int nb = 0;
  Bd2valOptions bd2val;
};

struct GesvdTimings {
  double ge2bnd_seconds = 0.0;
  double bnd2bd_seconds = 0.0;
  double bd2val_seconds = 0.0;
  std::size_t ge2bnd_tasks = 0;
  [[nodiscard]] double total() const noexcept {
    return ge2bnd_seconds + bnd2bd_seconds + bd2val_seconds;
  }
};

/// Singular values (descending) of tiled A (consumed in place, p >= q).
/// A is scanned for non-finite entries (throws numerical_hazard_error) and
/// pre-scaled in place when its norm is extreme (reported via info).
template <class T>
std::vector<double> gesvd_values(TileMatrixT<T>& A, const GesvdOptions& opts,
                                 GesvdTimings* timings = nullptr,
                                 SvdInfo* info = nullptr);

/// Singular values (descending) of a dense m x n matrix, m >= n. The input
/// is padded to tile multiples internally (zero rows/columns add exactly
/// zero singular values, which are trimmed from the result).
template <class T>
std::vector<double> gesvd_values(ConstMatrixViewT<T> A,
                                 const GesvdOptions& opts,
                                 GesvdTimings* timings = nullptr,
                                 SvdInfo* info = nullptr);

}  // namespace tbsvd
