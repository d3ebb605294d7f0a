#include "kernels/lq_kernels.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "lac/householder.hpp"
#include "lac/qr_rec.hpp"

namespace tbsvd::kernels {

namespace {

// Per-thread scratch, one instance per scalar type.
template <class T>
MatrixT<T>& g_apply_work() {  // larfb_right_rows / larfb_ts / larfb_tt
  thread_local MatrixT<T> w;
  return w;
}

}  // namespace

template <class T>
void gelqt(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(ib >= 1 && Tm.m >= std::min(ib, k) && Tm.n >= k,
              "gelqt: bad ib or T shape");

  for (int i0 = 0; i0 < k; i0 += ib) {
    const int kb = std::min(ib, k - i0);
    // --- Recursive BLAS3 row panel (factor + T in one pass). ---
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    gelqf_rec<T>(A.block(i0, i0, kb, n - i0), Tp);
    // --- Apply the block reflector to trailing rows. ---
    const int mr = m - i0 - kb;
    if (mr > 0) {
      larfb_right_rows<T>(Trans::Yes, A.block(i0, i0, kb, n - i0), Tp,
                          A.block(i0 + kb, i0, mr, n - i0),
                          g_apply_work<T>());
    }
  }
}

template <class T>
void unmlq(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
           MatrixViewT<T> C, int ib) {
  const int k = std::min(V.m, V.n);
  const int n = V.n;
  TBSVD_CHECK(C.n == n, "unmlq: V/C column mismatch");
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    // C Q^T applies panels forward with T; C Q backward with T^T.
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int i0 = pb * ib;
    const int kb = std::min(ib, k - i0);
    larfb_right_rows<T>(trans, V.block(i0, i0, kb, n - i0),
                        Tm.block(0, i0, kb, kb),
                        C.block(0, i0, C.m, n - i0), g_apply_work<T>());
  }
}

template <class T>
void tslqt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib) {
  const int n1 = A1.m;
  const int m2 = A2.n;
  TBSVD_CHECK(A1.n == n1 && A2.m == n1, "tslqt: shape mismatch");

  for (int i0 = 0; i0 < n1; i0 += ib) {
    const int kb = std::min(ib, n1 - i0);
    // --- Recursive BLAS3 row panel: reflectors live in A2's rows, T comes
    // out of the recursion. ---
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    tslqf_rec<T>(A1.block(i0, i0, kb, kb), A2.block(i0, 0, kb, m2), Tp);
    // --- Trailing rows of [A1 | A2] (identity V1 part: no trmm). ---
    const int mr = n1 - i0 - kb;
    if (mr > 0) {
      larfb_ts<T>(Side::Right, Trans::Yes, A2.block(i0, 0, kb, m2), Tp,
                  A1.block(i0 + kb, i0, mr, kb),
                  A2.block(i0 + kb, 0, mr, m2), g_apply_work<T>());
    }
  }
}

template <class T>
void tsmlq(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.m;
  const int m2 = V2.n;
  const int mc = C1.m;
  TBSVD_CHECK(C1.n >= k && C2.m == mc && C2.n == m2,
              "tsmlq: shape mismatch");
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int i0 = pb * ib;
    const int kb = std::min(ib, k - i0);
    larfb_ts<T>(Side::Right, trans, V2.block(i0, 0, kb, m2),
                Tm.block(0, i0, kb, kb), C1.block(0, i0, mc, kb), C2,
                g_apply_work<T>());
  }
}

template <class T>
void ttlqt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib) {
  const int n = A1.m;
  TBSVD_CHECK(A1.n == n && A2.m == n && A2.n == n, "ttlqt: shape mismatch");
  TBSVD_CHECK(ib >= 1 && (n == 0 || (Tm.m >= std::min(ib, n) && Tm.n >= n)),
              "ttlqt: bad ib or T shape");

  for (int i0 = 0; i0 < n; i0 += ib) {
    const int kb = std::min(ib, n - i0);
    // --- Recursive BLAS3 row panel: the V2 rows form a lower trapezoid of
    // width i0 + kb (row l has support columns 0..i0+l; anything right of
    // that is unrelated storage, e.g. GELQT Householder data when the tile
    // came from a triangularization). ttlqf_rec routes every half-panel
    // apply and T merge through the support-masked gemm_trap path and
    // produces the full kb x kb T triangle. ---
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    ttlqf_rec<T>(A1.block(i0, i0, kb, kb), A2.block(i0, 0, kb, i0 + kb), Tp,
                 i0);
    // --- Trailing rows through the same masked BLAS3 apply. Columns
    // 0..i0+kb-1 of every trailing row are valid L data (the row's own
    // support reaches further down), so the dense writes never touch
    // unrelated storage. ---
    const int mr = n - i0 - kb;
    if (mr > 0) {
      const int nv = i0 + kb;
      ConstMatrixViewT<T> V2p = A2.block(i0, 0, kb, nv);
      larfb_tt<T>(Side::Right, Trans::Yes, V2p, Tp,
                  A1.block(i0 + kb, i0, mr, kb),
                  A2.block(i0 + kb, 0, mr, nv), i0, g_apply_work<T>());
    }
  }
}

template <class T>
void ttmlq(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.m;
  const int mc = C1.m;
  TBSVD_CHECK(V2.n == k, "ttmlq: V2 must be square (triangular reflector)");
  TBSVD_CHECK(C1.n == k && C2.n == k && C2.m == mc, "ttmlq: shape mismatch");
  TBSVD_CHECK(ib >= 1 && (k == 0 || (Tm.m >= std::min(ib, k) && Tm.n >= k)),
              "ttmlq: bad ib or T shape");
  if (k == 0 || mc == 0) return;
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int i0 = pb * ib;
    const int kb = std::min(ib, k - i0);
    // V2 row il has support columns 0..il (right of that is unrelated tile
    // storage); the panel is a lower trapezoid of width i0 + kb handled by
    // larfb_tt's support-masked apply.
    const int nv = i0 + kb;
    ConstMatrixViewT<T> V2p = V2.block(i0, 0, kb, nv);
    larfb_tt<T>(Side::Right, trans, V2p, Tm.block(0, i0, kb, kb),
                C1.block(0, i0, mc, kb), C2.block(0, 0, mc, nv), i0,
                g_apply_work<T>());
  }
}

#define TBSVD_INSTANTIATE_LQ_KERNELS(T)                                       \
  template void gelqt<T>(MatrixViewT<T>, MatrixViewT<T>, int);                \
  template void unmlq<T>(Trans, ConstMatrixViewT<T>, ConstMatrixViewT<T>,     \
                         MatrixViewT<T>, int);                                \
  template void tslqt<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,      \
                         int);                                                \
  template void tsmlq<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,               \
                         ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);      \
  template void ttlqt<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,      \
                         int);                                                \
  template void ttmlq<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,               \
                         ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);

TBSVD_INSTANTIATE_LQ_KERNELS(float)
TBSVD_INSTANTIATE_LQ_KERNELS(double)

#undef TBSVD_INSTANTIATE_LQ_KERNELS

}  // namespace tbsvd::kernels
