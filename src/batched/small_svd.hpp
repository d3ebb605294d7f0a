// Direct small-problem SVD staging, shared by the batched serving path
// (batched.cpp's sub-crossover branch) and the randomized truncated driver
// (src/rsvd, which lands an l x n projected matrix in exactly this size
// class): Chan-style preQR through the recursive panel when the problem is
// tall enough (5m >= 6n, the Chan/Elemental switch ratio), one-stage GEBRD
// bidiagonalization, BD2VAL.
#pragma once

#include <vector>

#include "band/bd2val.hpp"
#include "lac/dense.hpp"

namespace tbsvd::batched {

/// R-first pre-reduction of the staged m x n problem `s` (m >= n >= 1):
/// one recursive QR panel factors s in place (T factor into `tfac`) and
/// the n x n upper triangle R is returned as a view of `rbuf`, its strict
/// lower part zeroed. `tfac` and `rbuf` hold >= n*n elements each. The
/// caller picks the switch ratio: 5m >= 6n below, m > 2n in batched::svd's
/// tiled branch.
template <class T>
MatrixViewT<T> reduce_to_r(MatrixViewT<T> s, T* tfac, T* rbuf);

/// Full spectrum (descending, in T) of the staged working copy `s`
/// (m >= n >= 1 orientation), consumed in place. `tfac` and `rbuf` are
/// caller scratch of >= n*n elements each — the batched path carves them
/// from its per-worker arenas, rsvd from local buffers. Inputs must
/// already be finite and safely pre-scaled: the callers guard `s` with
/// ScaledSolve<T> (common/hazard.hpp) and unscale the spectrum themselves.
template <class T>
std::vector<T> small_svd_values(MatrixViewT<T> s, T* tfac, T* rbuf,
                                const Bd2valOptions& opts = {},
                                Bd2valInfo* info = nullptr);

}  // namespace tbsvd::batched
