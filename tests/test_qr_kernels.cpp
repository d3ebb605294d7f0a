// Tile QR kernel validation: every kernel is checked by forming the
// explicit orthogonal factor with the corresponding *MQR kernel applied to
// the identity, then verifying orthogonality and exact reconstruction of
// the original stacked tiles. Parameterized over (n, ib) combinations.
// Generators and checkers come from the shared harness (test_harness.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "oracle/oracle.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

using kernels::geqrt;
using kernels::tsmqr;
using kernels::tsqrt;
using kernels::ttmqr;
using kernels::ttmqr_ref;
using kernels::ttqrt;
using kernels::ttqrt_ref;
using kernels::unmqr;

using test::expect_orthogonal;
using test::mul;
using test::random_matrix;
using test::random_upper;

class QrKernelP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QrKernelP, GeqrtReconstructs) {
  const auto [n, ib] = GetParam();
  const int m = n;
  Matrix A = random_matrix(m, n, 1000 + n + ib);
  Matrix A0 = A;
  Matrix T(ib, n);
  geqrt(A.view(), T.view(), ib);

  // Q := unmqr(No) applied to I.
  Matrix Q = Matrix::identity(m);
  unmqr(Trans::No, A.cview(), T.cview(), Q.view(), ib);
  expect_orthogonal(Q.cview(), 1e-13);

  Matrix R(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) R(i, j) = A(i, j);
  Matrix QR = mul(Q.cview(), R.cview());
  double err = 0.0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      err = std::max(err, std::fabs(QR(i, j) - A0(i, j)));
  EXPECT_LT(err, 1e-12 * (1.0 + norm_fro(A0.cview())));
}

TEST_P(QrKernelP, GeqrtTransThenNoTransIsIdentity) {
  const auto [n, ib] = GetParam();
  Matrix A = random_matrix(n, n, 1100 + n + ib);
  Matrix T(ib, n);
  geqrt(A.view(), T.view(), ib);
  Matrix C = random_matrix(n, n, 1200 + n);
  Matrix C0 = C;
  unmqr(Trans::Yes, A.cview(), T.cview(), C.view(), ib);
  unmqr(Trans::No, A.cview(), T.cview(), C.view(), ib);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) EXPECT_NEAR(C(i, j), C0(i, j), 1e-12);
}

TEST_P(QrKernelP, TsqrtReconstructs) {
  const auto [n, ib] = GetParam();
  for (const int m2 : {n, 2 * n, std::max(1, n / 2)}) {
    Matrix A1 = random_upper(n, 2000 + n + ib);
    Matrix A2 = random_matrix(m2, n, 2100 + n + ib + m2);
    // Stacked original S0 = [A1; A2].
    Matrix S0(n + m2, n);
    copy(A1.cview(), S0.view().block(0, 0, n, n));
    copy(A2.cview(), S0.view().block(n, 0, m2, n));

    Matrix T(ib, n);
    tsqrt(A1.view(), A2.view(), T.view(), ib);

    // Explicit Q from tsmqr(No) on identity: rows [0,n) are C1, rest C2.
    Matrix Q(n + m2, n + m2);
    for (int i = 0; i < n + m2; ++i) Q(i, i) = 1.0;
    MatrixView C1 = Q.view().block(0, 0, n, n + m2);
    MatrixView C2 = Q.view().block(n, 0, m2, n + m2);
    tsmqr(Trans::No, C1, C2, A2.cview(), T.cview(), ib);
    expect_orthogonal(Q.cview(), 1e-12);

    Matrix R(n + m2, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i <= j; ++i) R(i, j) = A1(i, j);
    Matrix QR = mul(Q.cview(), R.cview());
    const double scale = norm_fro(S0.cview());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n + m2; ++i)
        EXPECT_NEAR(QR(i, j), S0(i, j), 1e-12 * scale)
            << "m2=" << m2 << " at (" << i << "," << j << ")";
  }
}

TEST_P(QrKernelP, TsmqrTransZeroesEliminatedTile) {
  // Applying Q^T to the original stack must reproduce [R; 0].
  const auto [n, ib] = GetParam();
  const int m2 = n;
  Matrix A1 = random_upper(n, 3000 + n + ib);
  Matrix A2 = random_matrix(m2, n, 3100 + n + ib);
  Matrix C1 = A1, C2 = A2;
  Matrix T(ib, n);
  tsqrt(A1.view(), A2.view(), T.view(), ib);
  tsmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  // C1 must equal the R from tsqrt; C2 must be ~0.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) EXPECT_NEAR(C1(i, j), A1(i, j), 1e-11);
    for (int i = 0; i < m2; ++i) EXPECT_NEAR(C2(i, j), 0.0, 1e-11);
  }
}

TEST_P(QrKernelP, TtqrtReconstructsAndKeepsStructure) {
  const auto [n, ib] = GetParam();
  Matrix A1 = random_upper(n, 4000 + n + ib);
  Matrix A2 = random_upper(n, 4100 + n + ib);
  Matrix S0(2 * n, n);
  copy(A1.cview(), S0.view().block(0, 0, n, n));
  copy(A2.cview(), S0.view().block(n, 0, n, n));

  Matrix T(ib, n);
  ttqrt(A1.view(), A2.view(), T.view(), ib);

  // V2 must stay upper trapezoidal: strictly-below-diagonal entries zero.
  for (int j = 0; j < n; ++j)
    for (int i = j + 1; i < n; ++i)
      EXPECT_EQ(A2(i, j), 0.0) << "fill-in below diagonal of V2";

  Matrix Q(2 * n, 2 * n);
  for (int i = 0; i < 2 * n; ++i) Q(i, i) = 1.0;
  ttmqr(Trans::No, Q.view().block(0, 0, n, 2 * n),
        Q.view().block(n, 0, n, 2 * n), A2.cview(), T.cview(), ib);
  expect_orthogonal(Q.cview(), 1e-12);

  Matrix R(2 * n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) R(i, j) = A1(i, j);
  Matrix QR = mul(Q.cview(), R.cview());
  const double scale = norm_fro(S0.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < 2 * n; ++i)
      EXPECT_NEAR(QR(i, j), S0(i, j), 1e-12 * scale);
}

TEST_P(QrKernelP, TtmqrTransZeroesEliminatedTriangle) {
  const auto [n, ib] = GetParam();
  Matrix A1 = random_upper(n, 5000 + n + ib);
  Matrix A2 = random_upper(n, 5100 + n + ib);
  Matrix C1 = A1, C2 = A2;
  Matrix T(ib, n);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) EXPECT_NEAR(C1(i, j), A1(i, j), 1e-11);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(C2(i, j), 0.0, 1e-11);
  }
}

TEST_P(QrKernelP, UpdateKernelsPreserveFrobeniusNorm) {
  // op(Q) is orthogonal, so every *MQR application preserves the stacked
  // Frobenius norm — a cheap invariant under random updates.
  const auto [n, ib] = GetParam();
  Matrix A1 = random_upper(n, 6000 + n);
  Matrix A2 = random_matrix(n, n, 6100 + n);
  Matrix T(ib, n);
  tsqrt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1 = random_matrix(n, n, 6200), C2 = random_matrix(n, n, 6300);
  const double before = std::sqrt(
      std::pow(norm_fro(C1.cview()), 2) + std::pow(norm_fro(C2.cview()), 2));
  tsmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  const double after = std::sqrt(
      std::pow(norm_fro(C1.cview()), 2) + std::pow(norm_fro(C2.cview()), 2));
  EXPECT_NEAR(before, after, 1e-11 * before);
}

TEST_P(QrKernelP, TtBlockedMatchesReference) {
  // The blocked (gemm_trap) TT kernels against the level-2 reference
  // oracle, on inputs whose out-of-support storage is poisoned: the TT
  // contract is that entries below V2's diagonal are unrelated data (e.g.
  // GEQRT Householder vectors) that must be neither read nor written.
  const auto [n, ib] = GetParam();
  Matrix A1 = random_upper(n, 8000 + n + ib);
  Matrix A2 = random_upper(n, 8100 + n + ib);
  test::poison_below_diag(A2.view());
  Matrix A1r = A1, A2r = A2;
  Matrix T(ib, n), Tr(ib, n);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  ttqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);

  const double scale = 1.0 + norm_fro(A1r.cview());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      EXPECT_NEAR(A1(i, j), A1r(i, j), 1e-12 * scale) << i << "," << j;
      EXPECT_NEAR(A2(i, j), A2r(i, j), 1e-12 * scale) << i << "," << j;
    }
    for (int i = 0; i < std::min(ib, n); ++i)
      EXPECT_NEAR(T(i, j), Tr(i, j), 1e-12) << "T at " << i << "," << j;
  }
  // Poison below the diagonal must be bitwise untouched by both paths.
  test::expect_poison_below_diag(A2.cview(), "ttqrt V2");
  test::expect_poison_below_diag(A2r.cview(), "ttqrt_ref V2");

  // Same cross-check for the update kernel, applied with the factored
  // (still-poisoned) V2.
  for (Trans trans : {Trans::Yes, Trans::No}) {
    Matrix C1 = random_matrix(n, n, 8200 + n), C2 = random_matrix(n, n, 8300 + n);
    Matrix C1r = C1, C2r = C2;
    ttmqr(trans, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
    ttmqr_ref(trans, C1r.view(), C2r.view(), A2.cview(), T.cview(), ib);
    const double cscale = 1.0 + norm_fro(C1r.cview()) + norm_fro(C2r.cview());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(C1(i, j), C1r(i, j), 1e-12 * cscale);
        EXPECT_NEAR(C2(i, j), C2r(i, j), 1e-12 * cscale);
      }
  }
}

TEST_P(QrKernelP, TtmqrRoundTripRestoresOperand) {
  // Q^T then Q (and Q then Q^T) must restore [C1; C2]: the round-trip
  // orthogonality check of the blocked TT pipeline.
  const auto [n, ib] = GetParam();
  Matrix A1 = random_upper(n, 9000 + n + ib);
  Matrix A2 = random_upper(n, 9100 + n + ib);
  Matrix T(ib, n);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1 = random_matrix(n, n, 9200 + n), C2 = random_matrix(n, n, 9300 + n);
  Matrix C10 = C1, C20 = C2;
  ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  ttmqr(Trans::No, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  const double scale = 1.0 + norm_fro(C10.cview()) + norm_fro(C20.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(C1(i, j), C10(i, j), 1e-12 * scale);
      EXPECT_NEAR(C2(i, j), C20(i, j), 1e-12 * scale);
    }
}

TEST(QrKernelEdge, TtmqrEmptyTrailingBlockIsANoop) {
  // nc == 0 (an empty update block) must early-out without touching W
  // scratch or the (empty) views.
  const int n = 16, ib = 4;
  Matrix A1 = random_upper(n, 9400), A2 = random_upper(n, 9410);
  Matrix T(ib, n);
  ttqrt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1(n, 0), C2(n, 0);
  ttmqr(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  SUCCEED();
}

TEST(QrKernelEdge, TtSingleColumnAndIbLargerThanN) {
  // n == 1 (single column, single reflector) and ib > n (one short panel,
  // kb == n < ib) must both work and agree with the reference.
  for (const auto& [n, ib] : {std::pair{1, 1}, std::pair{1, 4},
                              std::pair{5, 8}, std::pair{7, 16}}) {
    Matrix A1 = random_upper(n, 9500 + n + ib);
    Matrix A2 = random_upper(n, 9510 + n + ib);
    Matrix A1r = A1, A2r = A2;
    Matrix T(ib, n), Tr(ib, n);
    ttqrt(A1.view(), A2.view(), T.view(), ib);
    ttqrt_ref(A1r.view(), A2r.view(), Tr.view(), ib);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i <= j; ++i) {
        EXPECT_NEAR(A1(i, j), A1r(i, j), 1e-12) << n << " " << ib;
        EXPECT_NEAR(A2(i, j), A2r(i, j), 1e-12) << n << " " << ib;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocking, QrKernelP,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{3, 2},
                      std::tuple{7, 8}, std::tuple{8, 3}, std::tuple{16, 4},
                      std::tuple{16, 16}, std::tuple{24, 8},
                      std::tuple{33, 32}, std::tuple{40, 7},
                      std::tuple{64, 32}, std::tuple{64, 64}));

TEST(QrKernelRect, GeqrtTallTile) {
  // Rectangular tiles (m > n): used when forming Q factors.
  const int m = 37, n = 16, ib = 5;
  Matrix A = random_matrix(m, n, 7000);
  Matrix A0 = A;
  Matrix T(ib, n);
  geqrt(A.view(), T.view(), ib);
  Matrix Q = Matrix::identity(m);
  unmqr(Trans::No, A.cview(), T.cview(), Q.view(), ib);
  expect_orthogonal(Q.cview(), 1e-12);
  Matrix R(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) R(i, j) = A(i, j);
  Matrix QR = mul(Q.cview(), R.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) EXPECT_NEAR(QR(i, j), A0(i, j), 1e-11);
}

}  // namespace
}  // namespace tbsvd
