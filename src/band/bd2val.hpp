// BD2VAL: singular values of an upper bidiagonal matrix, for T in {float,
// double}, by shifted dqds on the qd arrays q = d^2, e = e^2 — the
// algorithm of Fernando–Parlett and Parlett–Marques that LAPACK xBDSQR runs
// (xLASQ1) when only values are wanted. Every value, however small, comes
// out to high relative accuracy; tolerances derive from numeric_limits<T>.
// If the transform budget runs out the driver degrades gracefully to Sturm
// bisection (band/sturm.hpp) on the caller's (d, e), flagged in
// Bd2valInfo; with allow_bisection_fallback = false a stall throws
// convergence_error instead. Non-finite input throws numerical_hazard_error
// up front (NaN never deflates). Contract details: docs/ROBUSTNESS.md.
#pragma once

#include <vector>

#include "band/bnd2bd.hpp"
#include "common/error.hpp"

namespace tbsvd {

struct Bd2valOptions {
  /// Budget of max_sweeps_per_value * n dqds transforms, failed ones
  /// included. >= 0; 0 forces the bisection fallback on any bidiagonal that
  /// needs a transform — useful for exercising the degraded path.
  int max_sweeps_per_value = 30;
  bool allow_bisection_fallback = true;
};

/// Diagnostics for one bd2val solve.
struct Bd2valInfo {
  Status status = Status::Ok;  ///< Ok, or Degraded when bisection ran
  long long qr_iterations = 0;  ///< dqds transforms run, failed included
  bool bisection_fallback = false;
};

/// Singular values of the bidiagonal (d, e), sorted descending.
template <class T>
std::vector<T> bd2val(std::vector<T> d, std::vector<T> e,
                      const Bd2valOptions& opts = {},
                      Bd2valInfo* info = nullptr);

template <class T>
inline std::vector<T> bd2val(const BidiagonalT<T>& b,
                             const Bd2valOptions& opts = {},
                             Bd2valInfo* info = nullptr) {
  return bd2val<T>(b.d, b.e, opts, info);
}

}  // namespace tbsvd
