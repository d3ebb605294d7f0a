#include "kernels/qr_kernels.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "lac/householder.hpp"
#include "lac/qr_rec.hpp"

namespace tbsvd::kernels {

namespace {

// Per-thread scratch, one instance per scalar type, to avoid per-task
// allocation in the runtime's hot path.
template <class T>
MatrixT<T>& g_larfb_work() {
  thread_local MatrixT<T> w;
  return w;
}

// Size the shared larfb workspace once for a whole kernel invocation so the
// per-panel larfb calls never have to grow it mid-factorization.
template <class T>
void reserve_larfb_work(int rows, int cols) {
  MatrixT<T>& w = g_larfb_work<T>();
  if (rows > 0 && cols > 0 && (w.rows() < rows || w.cols() < cols)) {
    // Grow-only in each dimension: alternating kernel shapes must not shrink
    // the other extent and force a reallocation per invocation.
    w = MatrixT<T>(std::max(w.rows(), rows), std::max(w.cols(), cols));
  }
}

}  // namespace

template <class T>
void geqrt(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(ib >= 1 && Tm.m >= std::min(ib, k) && Tm.n >= k,
              "geqrt: bad ib or T shape");
  reserve_larfb_work<T>(n - std::min(ib, k), std::min(ib, k));
  for (int j0 = 0; j0 < k; j0 += ib) {
    const int kb = std::min(ib, k - j0);
    MatrixViewT<T> panel = A.block(j0, j0, m - j0, kb);
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    // Recursive BLAS3 panel: V, R and the full kb x kb T in one pass.
    geqrf_rec<T>(panel, Tp);
    if (j0 + kb < n) {
      larfb_left_t<T>(Trans::Yes, panel, Tp,
                      A.block(j0, j0 + kb, m - j0, n - j0 - kb),
                      g_larfb_work<T>());
    }
  }
  if (TBSVD_FAULT_FIRE("kernels.geqrt.poison_nan")) {
    A(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }
}

template <class T>
void unmqr(Trans trans, ConstMatrixViewT<T> V, ConstMatrixViewT<T> Tm,
           MatrixViewT<T> C, int ib) {
  const int k = std::min(V.m, V.n);
  TBSVD_CHECK(V.m == C.m, "unmqr: V/C row mismatch");
  reserve_larfb_work<T>(C.n, std::min(ib, k));
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    // Q^T C applies panels forward; Q C applies them backward.
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int j0 = pb * ib;
    const int kb = std::min(ib, k - j0);
    larfb_left_t<T>(trans, V.block(j0, j0, V.m - j0, kb),
                    Tm.block(0, j0, kb, kb), C.block(j0, 0, C.m - j0, C.n),
                    g_larfb_work<T>());
  }
}

template <class T>
void tsqrt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib) {
  const int n = A1.n;
  const int m2 = A2.m;
  TBSVD_CHECK(A1.m == n && A2.n == n, "tsqrt: shape mismatch");

  for (int j0 = 0; j0 < n; j0 += ib) {
    const int kb = std::min(ib, n - j0);
    // --- Recursive BLAS3 panel: reflectors live entirely in A2's columns,
    // and the full kb x kb T triangle comes out of the recursion. ---
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    tsqrf_rec<T>(A1.block(j0, j0, kb, kb), A2.block(0, j0, m2, kb), Tp);
    // --- Apply the block reflector to trailing columns of [A1; A2]
    // (larfb_ts keeps its workspace transposed so the T product runs on
    // the vectorizable trmm_right sweep). ---
    const int nc = n - j0 - kb;
    if (nc > 0) {
      ConstMatrixViewT<T> V2p{A2.col(j0), m2, kb, A2.ld};
      larfb_ts<T>(Side::Left, Trans::Yes, V2p, Tp,
                  A1.block(j0, j0 + kb, kb, nc), A2.block(0, j0 + kb, m2, nc),
                  g_larfb_work<T>());
    }
  }
}

template <class T>
void tsmqr(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.n;
  const int m2 = V2.m;
  const int nc = C1.n;
  TBSVD_CHECK(C1.m >= k && C2.m == m2 && C2.n == nc,
              "tsmqr: shape mismatch");
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int j0 = pb * ib;
    const int kb = std::min(ib, k - j0);
    ConstMatrixViewT<T> V2p{V2.col(j0), m2, kb, V2.ld};
    ConstMatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    larfb_ts<T>(Side::Left, trans, V2p, Tp, C1.block(j0, 0, kb, nc), C2,
                g_larfb_work<T>());
  }
}

template <class T>
void ttqrt(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm, int ib) {
  const int n = A1.n;
  TBSVD_CHECK(A1.m == n && A2.m == n && A2.n == n, "ttqrt: shape mismatch");
  TBSVD_CHECK(ib >= 1 && (n == 0 || (Tm.m >= std::min(ib, n) && Tm.n >= n)),
              "ttqrt: bad ib or T shape");

  for (int j0 = 0; j0 < n; j0 += ib) {
    const int kb = std::min(ib, n - j0);
    // --- Recursive BLAS3 panel: the V2 columns form an upper trapezoid of
    // height j0 + kb (column l has support rows 0..j0+l; anything below is
    // unrelated storage, e.g. GEQRT Householder data when the tile came
    // from a triangularization). ttqrf_rec routes every half-panel apply
    // and T merge through the support-masked gemm_trap path and produces
    // the full kb x kb T triangle. ---
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    ttqrf_rec<T>(A1.block(j0, j0, kb, kb), A2.block(0, j0, j0 + kb, kb), Tp,
                 j0);
    // --- Trailing update through the same masked BLAS3 apply. Rows
    // 0..j0+kb-1 of every trailing column are valid R data (the column's
    // own support reaches further right), so the dense writes never touch
    // unrelated storage. ---
    const int nc = n - j0 - kb;
    if (nc > 0) {
      const int mv = j0 + kb;
      ConstMatrixViewT<T> V2p{A2.col(j0), mv, kb, A2.ld};
      larfb_tt<T>(Side::Left, Trans::Yes, V2p, Tp,
                  A1.block(j0, j0 + kb, kb, nc),
                  A2.block(0, j0 + kb, mv, nc), j0, g_larfb_work<T>());
    }
  }
}

template <class T>
void ttmqr(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
           ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.n;
  const int nc = C1.n;
  TBSVD_CHECK(V2.m == k, "ttmqr: V2 must be square (triangular reflector)");
  TBSVD_CHECK(C1.m == k && C2.m == k && C2.n == nc, "ttmqr: shape mismatch");
  TBSVD_CHECK(ib >= 1 && (k == 0 || (Tm.m >= std::min(ib, k) && Tm.n >= k)),
              "ttmqr: bad ib or T shape");
  if (k == 0 || nc == 0) return;
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int j0 = pb * ib;
    const int kb = std::min(ib, k - j0);
    // V2 column jl has support rows 0..jl (below is unrelated tile
    // storage); the panel is an upper trapezoid of height j0 + kb handled
    // by larfb_tt's support-masked apply.
    const int mv = j0 + kb;
    ConstMatrixViewT<T> V2p{V2.col(j0), mv, kb, V2.ld};
    larfb_tt<T>(Side::Left, trans, V2p, Tm.block(0, j0, kb, kb),
                C1.block(j0, 0, kb, nc), C2.block(0, 0, mv, nc), j0,
                g_larfb_work<T>());
  }
}

#define TBSVD_INSTANTIATE_QR_KERNELS(T)                                       \
  template void geqrt<T>(MatrixViewT<T>, MatrixViewT<T>, int);                \
  template void unmqr<T>(Trans, ConstMatrixViewT<T>, ConstMatrixViewT<T>,     \
                         MatrixViewT<T>, int);                                \
  template void tsqrt<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,      \
                         int);                                                \
  template void tsmqr<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,               \
                         ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);      \
  template void ttqrt<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,      \
                         int);                                                \
  template void ttmqr<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,               \
                         ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);

TBSVD_INSTANTIATE_QR_KERNELS(float)
TBSVD_INSTANTIATE_QR_KERNELS(double)

#undef TBSVD_INSTANTIATE_QR_KERNELS

}  // namespace tbsvd::kernels
