#include "core/qform.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

template <class T>
Ge2bndFactorsT<T> bidiag_factored(TileMatrixT<T> A, const Ge2bndOptions& opt) {
  const int p = A.mt(), q = A.nt();
  TBSVD_CHECK(p >= q && q >= 1, "bidiag_factored requires p >= q >= 1");
  TBSVD_CHECK(opt.ib >= 0, "bidiag_factored: need ib >= 0 (0 = tuned)");
  Ge2bndFactorsT<T> f;
  f.ib = std::min(
      tune::resolved_ib(opt.ib, static_cast<int>(sizeof(T)), /*fallback=*/32),
      A.nb());
  f.ops = build_bidiag_ops(p, q, ge2bnd_config(opt));
  f.A = std::move(A);
  f.t = TFactorsT<T>(p, q, f.ib, f.A.nb());
  ExecOptions eo;
  eo.ib = f.ib;
  eo.nthreads = opt.nthreads;
  execute_tile_ops<T>(f.A, f.ops, eo, f.t);
  return f;
}

template <class T>
MatrixT<T> form_q(const Ge2bndFactorsT<T>& f) {
  using namespace kernels;
  const int p = f.A.mt(), nb = f.A.nb(), ib = f.ib;
  const int m = f.A.rows();
  TileMatrixT<T> Q(m, m, nb);
  for (int i = 0; i < m; ++i) Q.at(i, i) = T(1);

  // Q^T is the composition of the panel transforms in submission order;
  // Q = (first)^T (second)^T ... applied to I in reverse with Trans::No.
  for (auto it = f.ops.rbegin(); it != f.ops.rend(); ++it) {
    const TileOp& t = *it;
    if (!op_is_panel(t.op) || op_is_lq(t.op)) continue;
    for (int jq = 0; jq < p; ++jq) {
      switch (t.op) {
        case Op::GEQRT:
          unmqr<T>(Trans::No, f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k),
                   Q.tile(t.tgt, jq), ib);
          break;
        case Op::TSQRT:
          tsmqr<T>(Trans::No, Q.tile(t.piv, jq), Q.tile(t.tgt, jq),
                   f.A.tile(t.tgt, t.k), f.t.tqts.tile(t.tgt, t.k), ib);
          break;
        case Op::TTQRT:
          ttmqr<T>(Trans::No, Q.tile(t.piv, jq), Q.tile(t.tgt, jq),
                   f.A.tile(t.tgt, t.k), f.t.tqtt.tile(t.tgt, t.k), ib);
          break;
        default:
          break;
      }
    }
  }
  return Q.to_dense();
}

template <class T>
MatrixT<T> form_pt(const Ge2bndFactorsT<T>& f) {
  using namespace kernels;
  const int q = f.A.nt(), nb = f.A.nb(), ib = f.ib;
  const int n = f.A.cols();
  TileMatrixT<T> P(n, n, nb);
  for (int i = 0; i < n; ++i) P.at(i, i) = T(1);

  // A is right-multiplied by the LQ panel transforms in submission order:
  // P = P_1 P_2 ...; form it as I * P_1 * P_2 * ... (forward, Trans::Yes,
  // matching the update kernels' semantics in the factorization).
  for (const TileOp& t : f.ops) {
    if (!op_is_panel(t.op) || !op_is_lq(t.op)) continue;
    for (int iq = 0; iq < q; ++iq) {
      switch (t.op) {
        case Op::GELQT:
          unmlq<T>(Trans::Yes, f.A.tile(t.k, t.tgt),
                   f.t.tlts.tile(t.k, t.tgt), P.tile(iq, t.tgt), ib);
          break;
        case Op::TSLQT:
          tsmlq<T>(Trans::Yes, P.tile(iq, t.piv), P.tile(iq, t.tgt),
                   f.A.tile(t.k, t.tgt), f.t.tlts.tile(t.k, t.tgt), ib);
          break;
        case Op::TTLQT:
          ttmlq<T>(Trans::Yes, P.tile(iq, t.piv), P.tile(iq, t.tgt),
                   f.A.tile(t.k, t.tgt), f.t.tltt.tile(t.k, t.tgt), ib);
          break;
        default:
          break;
      }
    }
  }
  MatrixT<T> Pd = P.to_dense();
  MatrixT<T> Pt(n, n);
  transpose<T>(Pd.cview(), Pt.view());
  return Pt;
}

#define TBSVD_INSTANTIATE_QFORM(T)                                         \
  template Ge2bndFactorsT<T> bidiag_factored<T>(TileMatrixT<T>,            \
                                                const Ge2bndOptions&);     \
  template MatrixT<T> form_q<T>(const Ge2bndFactorsT<T>&);                 \
  template MatrixT<T> form_pt<T>(const Ge2bndFactorsT<T>&);

TBSVD_INSTANTIATE_QFORM(float)
TBSVD_INSTANTIATE_QFORM(double)

#undef TBSVD_INSTANTIATE_QFORM

}  // namespace tbsvd
