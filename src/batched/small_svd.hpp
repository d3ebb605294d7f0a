// Direct small-problem SVD staging, shared by the batched serving path
// (every batched::svd member), the randomized truncated driver (src/rsvd,
// which lands an l x n projected matrix in exactly this size class) and
// the Chan baseline (src/baseline/chan): Chan-style preQR through the
// recursive panel when the problem is tall enough (5m >= 6n, the
// Chan/Elemental switch ratio), one-stage GEBRD bidiagonalization, BD2VAL.
#pragma once

#include <vector>

#include "band/bd2val.hpp"
#include "lac/dense.hpp"

namespace tbsvd::batched {

/// Full spectrum (descending, in T) of the staged working copy `s`
/// (m >= n >= 1 orientation), consumed in place. `tfac` and `rbuf` are
/// caller scratch of >= n*n elements each, contents on entry ignored — the
/// batched path carves them from its per-worker arenas, rsvd and Chan from
/// local buffers. Inputs must already be finite and safely pre-scaled: the
/// callers guard `s` with ScaledSolve<T> (common/hazard.hpp) and unscale
/// the spectrum themselves.
template <class T>
std::vector<T> small_svd_values(MatrixViewT<T> s, T* tfac, T* rbuf,
                                const Bd2valOptions& opts = {},
                                Bd2valInfo* info = nullptr);

}  // namespace tbsvd::batched
