#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "lac/householder.hpp"
#include "lac/qr_ref.hpp"
#include "oracle/oracle.hpp"

namespace tbsvd::kernels {

namespace {

// Per-thread scratch, one instance per scalar type, as in the library
// kernels, so the benches time the same work on both sides.
template <class T>
std::vector<T>& g_tau() {
  thread_local std::vector<T> v;
  return v;
}
template <class T>
std::vector<T>& g_w() {
  thread_local std::vector<T> v;
  return v;
}
template <class T>
MatrixT<T>& g_larfb_work() {
  thread_local MatrixT<T> w;
  return w;
}

template <class T>
T* scratch(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace

template <class T>
void geqrt_ref(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(ib >= 1 && Tm.m >= std::min(ib, k) && Tm.n >= k,
              "geqrt_ref: bad ib or T shape");
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(k));
  for (int j0 = 0; j0 < k; j0 += ib) {
    const int kb = std::min(ib, k - j0);
    MatrixViewT<T> panel = A.block(j0, j0, m - j0, kb);
    geqr2<T>(panel, tau + j0);
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    larft<T>(panel, tau + j0, Tp);
    if (j0 + kb < n) {
      larfb<T>(Side::Left, Trans::Yes, panel, Tp,
               A.block(j0, j0 + kb, m - j0, n - j0 - kb), g_larfb_work<T>());
    }
  }
}

template <class T>
void tsqrt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib) {
  const int n = A1.n;
  const int m2 = A2.m;
  TBSVD_CHECK(A1.m == n && A2.n == n, "tsqrt_ref: shape mismatch");
  if (m2 == 0) {
    // Empty-edge tile: identity reflectors, R untouched, T triangles zero.
    for (int j0 = 0; j0 < n; j0 += ib) {
      const int kb = std::min(ib, n - j0);
      MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
      for (int jl = 0; jl < kb; ++jl)
        for (int il = 0; il <= jl; ++il) Tp(il, jl) = T(0);
    }
    return;
  }
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(n));

  for (int j0 = 0; j0 < n; j0 += ib) {
    const int kb = std::min(ib, n - j0);
    // --- Factor the panel: reflectors live entirely in A2's columns. ---
    for (int jl = 0; jl < kb; ++jl) {
      const int j = j0 + jl;
      tau[j] = larfg<T>(m2 + 1, A1(j, j), A2.col(j), 1);
      for (int jj = j + 1; jj < j0 + kb; ++jj) {
        T w = A1(j, jj) + dot<T>(m2, A2.col(j), 1, A2.col(jj), 1);
        w *= tau[j];
        A1(j, jj) -= w;
        axpy<T>(m2, -w, A2.col(j), 1, A2.col(jj), 1);
      }
    }
    // --- Accumulate T for the panel (V_i^T V_j reduces to v2 dot v2). ---
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    for (int jl = 0; jl < kb; ++jl) {
      const int j = j0 + jl;
      if (jl > 0) {
        for (int il = 0; il < jl; ++il) Tp(il, jl) = T(0);
        gemv<T>(Trans::Yes, -tau[j],
                ConstMatrixViewT<T>{A2.col(j0), m2, jl, A2.ld}, A2.col(j), 1,
                T(1), Tp.col(jl), 1);
        MatrixViewT<T> tcol{Tp.col(jl), jl, 1, Tp.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tp.a, jl, jl, Tp.ld}, tcol);
      }
      Tp(jl, jl) = tau[j];
    }
    // --- Apply the block reflector to trailing columns of [A1; A2]. ---
    const int nc = n - j0 - kb;
    if (nc > 0) {
      ConstMatrixViewT<T> V2p{A2.col(j0), m2, kb, A2.ld};
      MatrixViewT<T> C1 = A1.block(j0, j0 + kb, kb, nc);
      MatrixViewT<T> C2 = A2.block(0, j0 + kb, m2, nc);
      MatrixViewT<T> W{
          scratch(g_w<T>(), static_cast<std::size_t>(kb) * nc), kb, nc, kb};
      copy<T>(C1, W);
      gemm<T>(Trans::Yes, Trans::No, T(1), V2p, C2, T(1), W);
      trmm_left<T>(UpLo::Upper, Trans::Yes, Diag::NonUnit, Tp, W);
      for (int j = 0; j < nc; ++j) {
        for (int i = 0; i < kb; ++i) C1(i, j) -= W(i, j);
      }
      gemm<T>(Trans::No, Trans::No, T(-1), V2p, W, T(1), C2);
    }
  }
}

template <class T>
void gelqt_ref(MatrixViewT<T> A, MatrixViewT<T> Tm, int ib) {
  const int m = A.m, n = A.n;
  const int k = std::min(m, n);
  TBSVD_CHECK(ib >= 1 && Tm.m >= std::min(ib, k) && Tm.n >= k,
              "gelqt_ref: bad ib or T shape");
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(k));

  for (int i0 = 0; i0 < k; i0 += ib) {
    const int kb = std::min(ib, k - i0);
    // --- Factor the row panel. ---
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      tau[i] = larfg<T>(n - i, A(i, i), &A(i, std::min(i + 1, n - 1)), A.ld);
      for (int ii = i + 1; ii < i0 + kb; ++ii) {
        T w = A(ii, i) +
              dot<T>(n - i - 1, &A(i, i + 1), A.ld, &A(ii, i + 1), A.ld);
        w *= tau[i];
        A(ii, i) -= w;
        axpy<T>(n - i - 1, -w, &A(i, i + 1), A.ld, &A(ii, i + 1), A.ld);
      }
    }
    // --- Accumulate T (row-storage larft). ---
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      if (il > 0) {
        for (int pl = 0; pl < il; ++pl) {
          const int ip = i0 + pl;
          Tp(pl, il) =
              -tau[i] * (A(ip, i) + dot<T>(n - i - 1, &A(ip, i + 1), A.ld,
                                           &A(i, i + 1), A.ld));
        }
        MatrixViewT<T> tcol{Tp.col(il), il, 1, Tp.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tp.a, il, il, Tp.ld}, tcol);
      }
      Tp(il, il) = tau[i];
    }
    // --- Apply the block reflector to trailing rows. ---
    const int mr = m - i0 - kb;
    if (mr > 0) {
      ConstMatrixViewT<T> V1 = A.block(i0, i0, kb, kb);  // unit upper
      MatrixViewT<T> Ca = A.block(i0 + kb, i0, mr, kb);
      MatrixViewT<T> W{
          scratch(g_w<T>(), static_cast<std::size_t>(mr) * kb), mr, kb, mr};
      copy<T>(Ca, W);
      trmm_right<T>(UpLo::Upper, Trans::Yes, Diag::Unit, W, V1);
      const int ntail = n - i0 - kb;
      if (ntail > 0) {
        ConstMatrixViewT<T> V2p = A.block(i0, i0 + kb, kb, ntail);
        ConstMatrixViewT<T> Cb = A.block(i0 + kb, i0 + kb, mr, ntail);
        gemm<T>(Trans::No, Trans::Yes, T(1), Cb, V2p, T(1), W);
      }
      trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, W, Tp);
      if (ntail > 0) {
        ConstMatrixViewT<T> V2p = A.block(i0, i0 + kb, kb, ntail);
        gemm<T>(Trans::No, Trans::No, T(-1), W, V2p, T(1),
                A.block(i0 + kb, i0 + kb, mr, ntail));
      }
      trmm_right<T>(UpLo::Upper, Trans::No, Diag::Unit, W, V1);
      sub_inplace<T>(Ca, W);
    }
  }
}

template <class T>
void tslqt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib) {
  const int n1 = A1.m;
  const int m2 = A2.n;
  TBSVD_CHECK(A1.n == n1 && A2.m == n1, "tslqt_ref: shape mismatch");
  if (m2 == 0) {
    // Empty-edge tile: identity reflectors, L untouched, T triangles zero.
    for (int i0 = 0; i0 < n1; i0 += ib) {
      const int kb = std::min(ib, n1 - i0);
      MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
      for (int il = 0; il < kb; ++il)
        for (int pl = 0; pl <= il; ++pl) Tp(pl, il) = T(0);
    }
    return;
  }
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(n1));

  for (int i0 = 0; i0 < n1; i0 += ib) {
    const int kb = std::min(ib, n1 - i0);
    // --- Factor the row panel: reflectors live in A2's rows. ---
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      tau[i] = larfg<T>(m2 + 1, A1(i, i), &A2(i, 0), A2.ld);
      for (int ii = i + 1; ii < i0 + kb; ++ii) {
        T w = A1(ii, i) + dot<T>(m2, &A2(i, 0), A2.ld, &A2(ii, 0), A2.ld);
        w *= tau[i];
        A1(ii, i) -= w;
        axpy<T>(m2, -w, &A2(i, 0), A2.ld, &A2(ii, 0), A2.ld);
      }
    }
    // --- Accumulate T. ---
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      if (il > 0) {
        for (int pl = 0; pl < il; ++pl) {
          Tp(pl, il) = -tau[i] *
                       dot<T>(m2, &A2(i0 + pl, 0), A2.ld, &A2(i, 0), A2.ld);
        }
        MatrixViewT<T> tcol{Tp.col(il), il, 1, Tp.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tp.a, il, il, Tp.ld}, tcol);
      }
      Tp(il, il) = tau[i];
    }
    // --- Trailing rows of [A1 | A2] (identity V1 part: no trmm). ---
    const int mr = n1 - i0 - kb;
    if (mr > 0) {
      ConstMatrixViewT<T> V2p = A2.block(i0, 0, kb, m2);
      MatrixViewT<T> Ca = A1.block(i0 + kb, i0, mr, kb);
      MatrixViewT<T> Cb = A2.block(i0 + kb, 0, mr, m2);
      MatrixViewT<T> W{
          scratch(g_w<T>(), static_cast<std::size_t>(mr) * kb), mr, kb, mr};
      copy<T>(Ca, W);
      gemm<T>(Trans::No, Trans::Yes, T(1), Cb, V2p, T(1), W);
      trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, W, Tp);
      sub_inplace<T>(Ca, W);
      gemm<T>(Trans::No, Trans::No, T(-1), W, V2p, T(1), Cb);
    }
  }
}

template <class T>
void ttqrt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib) {
  const int n = A1.n;
  TBSVD_CHECK(A1.m == n && A2.m == n && A2.n == n,
              "ttqrt_ref: shape mismatch");
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(n));

  for (int j0 = 0; j0 < n; j0 += ib) {
    const int kb = std::min(ib, n - j0);
    for (int jl = 0; jl < kb; ++jl) {
      const int j = j0 + jl;
      tau[j] = larfg<T>(j + 2, A1(j, j), A2.col(j), 1);
      for (int jj = j + 1; jj < j0 + kb; ++jj) {
        T w = A1(j, jj) + dot<T>(j + 1, A2.col(j), 1, A2.col(jj), 1);
        w *= tau[j];
        A1(j, jj) -= w;
        axpy<T>(j + 1, -w, A2.col(j), 1, A2.col(jj), 1);
      }
    }
    MatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    for (int jl = 0; jl < kb; ++jl) {
      const int j = j0 + jl;
      if (jl > 0) {
        for (int pl = 0; pl < jl; ++pl) {
          const int jp = j0 + pl;
          Tp(pl, jl) =
              -tau[j] * dot<T>(jp + 1, A2.col(jp), 1, A2.col(j), 1);
        }
        MatrixViewT<T> tcol{Tp.col(jl), jl, 1, Tp.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tp.a, jl, jl, Tp.ld}, tcol);
      }
      Tp(jl, jl) = tau[j];
    }
    const int nc = n - j0 - kb;
    if (nc > 0) {
      MatrixViewT<T> C1 = A1.block(j0, j0 + kb, kb, nc);
      MatrixViewT<T> W{
          scratch(g_w<T>(), static_cast<std::size_t>(kb) * nc), kb, nc, kb};
      copy<T>(C1, W);
      for (int l = 0; l < kb; ++l) {
        const int jl = j0 + l;
        gemv<T>(Trans::Yes, T(1), A2.block(0, j0 + kb, jl + 1, nc),
                A2.col(jl), 1, T(1), &W(l, 0), W.ld);
      }
      trmm_left<T>(UpLo::Upper, Trans::Yes, Diag::NonUnit, Tp, W);
      for (int j = 0; j < nc; ++j) {
        for (int i = 0; i < kb; ++i) C1(i, j) -= W(i, j);
      }
      for (int l = 0; l < kb; ++l) {
        const int jl = j0 + l;
        for (int c = 0; c < nc; ++c) {
          axpy<T>(jl + 1, -W(l, c), A2.col(jl), 1, A2.col(j0 + kb + c), 1);
        }
      }
    }
  }
}

template <class T>
void ttmqr_ref(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
               ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.n;
  const int nc = C1.n;
  TBSVD_CHECK(C1.m >= k && C2.n == nc && C2.m >= k,
              "ttmqr_ref: shape mismatch");
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int j0 = pb * ib;
    const int kb = std::min(ib, k - j0);
    ConstMatrixViewT<T> Tp = Tm.block(0, j0, kb, kb);
    MatrixViewT<T> C1p = C1.block(j0, 0, kb, nc);
    MatrixViewT<T> W{
        scratch(g_w<T>(), static_cast<std::size_t>(kb) * nc), kb, nc, kb};
    copy<T>(C1p, W);
    for (int l = 0; l < kb; ++l) {
      const int jl = j0 + l;
      gemv<T>(Trans::Yes, T(1), C2.block(0, 0, jl + 1, nc), V2.col(jl), 1,
              T(1), &W(l, 0), W.ld);
    }
    trmm_left<T>(UpLo::Upper, trans, Diag::NonUnit, Tp, W);
    for (int j = 0; j < nc; ++j) {
      for (int i = 0; i < kb; ++i) C1p(i, j) -= W(i, j);
    }
    for (int l = 0; l < kb; ++l) {
      const int jl = j0 + l;
      for (int c = 0; c < nc; ++c) {
        axpy<T>(jl + 1, -W(l, c), V2.col(jl), 1, C2.col(c), 1);
      }
    }
  }
}

template <class T>
void ttlqt_ref(MatrixViewT<T> A1, MatrixViewT<T> A2, MatrixViewT<T> Tm,
               int ib) {
  const int n = A1.m;
  TBSVD_CHECK(A1.n == n && A2.m == n && A2.n == n,
              "ttlqt_ref: shape mismatch");
  T* tau = scratch(g_tau<T>(), static_cast<std::size_t>(n));

  for (int i0 = 0; i0 < n; i0 += ib) {
    const int kb = std::min(ib, n - i0);
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      tau[i] = larfg<T>(i + 2, A1(i, i), &A2(i, 0), A2.ld);
      for (int ii = i + 1; ii < i0 + kb; ++ii) {
        T w = A1(ii, i) + dot<T>(i + 1, &A2(i, 0), A2.ld, &A2(ii, 0), A2.ld);
        w *= tau[i];
        A1(ii, i) -= w;
        axpy<T>(i + 1, -w, &A2(i, 0), A2.ld, &A2(ii, 0), A2.ld);
      }
    }
    MatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    for (int il = 0; il < kb; ++il) {
      const int i = i0 + il;
      if (il > 0) {
        for (int pl = 0; pl < il; ++pl) {
          const int ip = i0 + pl;
          Tp(pl, il) = -tau[i] *
                       dot<T>(ip + 1, &A2(ip, 0), A2.ld, &A2(i, 0), A2.ld);
        }
        MatrixViewT<T> tcol{Tp.col(il), il, 1, Tp.ld};
        trmm_left<T>(UpLo::Upper, Trans::No, Diag::NonUnit,
                     ConstMatrixViewT<T>{Tp.a, il, il, Tp.ld}, tcol);
      }
      Tp(il, il) = tau[i];
    }
    const int mr = n - i0 - kb;
    if (mr > 0) {
      MatrixViewT<T> Ca = A1.block(i0 + kb, i0, mr, kb);
      MatrixViewT<T> W{
          scratch(g_w<T>(), static_cast<std::size_t>(mr) * kb), mr, kb, mr};
      copy<T>(Ca, W);
      for (int l = 0; l < kb; ++l) {
        const int il = i0 + l;
        gemv<T>(Trans::No, T(1), A2.block(i0 + kb, 0, mr, il + 1),
                &A2(il, 0), A2.ld, T(1), &W(0, l), 1);
      }
      trmm_right<T>(UpLo::Upper, Trans::No, Diag::NonUnit, W, Tp);
      sub_inplace<T>(Ca, W);
      for (int l = 0; l < kb; ++l) {
        const int il = i0 + l;
        for (int c = 0; c <= il; ++c) {
          axpy<T>(mr, -A2(il, c), W.col(l), 1, &A2(i0 + kb, c), 1);
        }
      }
    }
  }
}

template <class T>
void ttmlq_ref(Trans trans, MatrixViewT<T> C1, MatrixViewT<T> C2,
               ConstMatrixViewT<T> V2, ConstMatrixViewT<T> Tm, int ib) {
  const int k = V2.m;
  const int mc = C1.m;
  TBSVD_CHECK(C1.n >= k && C2.m == mc && C2.n >= k,
              "ttmlq_ref: shape mismatch");
  const int npanels = (k + ib - 1) / ib;
  for (int b = 0; b < npanels; ++b) {
    const int pb = (trans == Trans::Yes) ? b : npanels - 1 - b;
    const int i0 = pb * ib;
    const int kb = std::min(ib, k - i0);
    ConstMatrixViewT<T> Tp = Tm.block(0, i0, kb, kb);
    MatrixViewT<T> C1p = C1.block(0, i0, mc, kb);
    MatrixViewT<T> W{
        scratch(g_w<T>(), static_cast<std::size_t>(mc) * kb), mc, kb, mc};
    copy<T>(C1p, W);
    for (int l = 0; l < kb; ++l) {
      const int il = i0 + l;
      gemv<T>(Trans::No, T(1), C2.block(0, 0, mc, il + 1), V2.a + il, V2.ld,
              T(1), &W(0, l), 1);
    }
    trmm_right<T>(UpLo::Upper, trans == Trans::Yes ? Trans::No : Trans::Yes,
                  Diag::NonUnit, W, Tp);
    sub_inplace<T>(C1p, W);
    for (int l = 0; l < kb; ++l) {
      const int il = i0 + l;
      for (int c = 0; c <= il; ++c) {
        axpy<T>(mc, -V2(il, c), W.col(l), 1, C2.col(c), 1);
      }
    }
  }
}

#define TBSVD_INSTANTIATE_REF_KERNELS(T)                                      \
  template void geqrt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, int);            \
  template void tsqrt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,  \
                             int);                                            \
  template void gelqt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, int);            \
  template void tslqt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,  \
                             int);                                            \
  template void ttqrt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,  \
                             int);                                            \
  template void ttmqr_ref<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,           \
                             ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);  \
  template void ttlqt_ref<T>(MatrixViewT<T>, MatrixViewT<T>, MatrixViewT<T>,  \
                             int);                                            \
  template void ttmlq_ref<T>(Trans, MatrixViewT<T>, MatrixViewT<T>,           \
                             ConstMatrixViewT<T>, ConstMatrixViewT<T>, int);

TBSVD_INSTANTIATE_REF_KERNELS(float)
TBSVD_INSTANTIATE_REF_KERNELS(double)

#undef TBSVD_INSTANTIATE_REF_KERNELS

}  // namespace tbsvd::kernels
