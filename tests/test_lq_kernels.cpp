// Tile LQ kernel validation. Besides explicit-Q reconstruction, every LQ
// kernel is cross-checked against its QR mirror through transposition:
// LQ(A) must produce exactly the transposed factors of QR(A^T) because the
// larfg conventions coincide.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "kernels/lq_kernels.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "oracle/oracle.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

using namespace tbsvd::kernels;

using test::mul;
using test::random_lower;
using test::random_matrix;
using test::transposed;

class LqKernelP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LqKernelP, GelqtMirrorsGeqrt) {
  // LQ(A) and QR(A^T) produce transposed factors. The two code paths
  // accumulate in different orders, so equality holds to rounding only.
  const auto [n, ib] = GetParam();
  Matrix A = random_matrix(n, n, 100 + n + ib);
  Matrix At = transposed(A.cview());
  Matrix Tl(ib, n), Tq(ib, n);
  gelqt(A.view(), Tl.view(), ib);
  geqrt(At.view(), Tq.view(), ib);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) EXPECT_NEAR(A(i, j), At(j, i), 1e-12);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < std::min(ib, n); ++i)
      EXPECT_NEAR(Tl(i, j), Tq(i, j), 1e-12);
}

TEST_P(LqKernelP, GelqtReconstructs) {
  const auto [n, ib] = GetParam();
  Matrix A = random_matrix(n, n, 200 + n + ib);
  Matrix A0 = A;
  Matrix T(ib, n);
  gelqt(A.view(), T.view(), ib);
  // Explicit Q: I := I * Q via unmlq(No).
  Matrix Q = Matrix::identity(n);
  unmlq(Trans::No, A.cview(), T.cview(), Q.view(), ib);
  EXPECT_LT(orthogonality_error(Q.cview()), 1e-12 * n);
  Matrix L(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) L(i, j) = A(i, j);
  Matrix LQ = mul(L.cview(), Q.cview());
  const double scale = 1.0 + norm_fro(A0.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) EXPECT_NEAR(LQ(i, j), A0(i, j), 1e-12 * scale);
}

TEST_P(LqKernelP, UnmlqRoundTrip) {
  const auto [n, ib] = GetParam();
  Matrix A = random_matrix(n, n, 300 + n + ib);
  Matrix T(ib, n);
  gelqt(A.view(), T.view(), ib);
  Matrix C = random_matrix(n, n, 310 + n);
  Matrix C0 = C;
  unmlq(Trans::Yes, A.cview(), T.cview(), C.view(), ib);
  unmlq(Trans::No, A.cview(), T.cview(), C.view(), ib);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) EXPECT_NEAR(C(i, j), C0(i, j), 1e-12);
}

TEST_P(LqKernelP, TslqtMirrorsTsqrt) {
  // tslqt(L1, A2^T) must mirror tsqrt(R1, A2) with L1 = R1^T, to rounding.
  const auto [n, ib] = GetParam();
  for (const int m2 : {n, 2 * n, std::max(1, n / 2)}) {
    Matrix R1 = random_matrix(n, n, 400 + n + ib);
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < n; ++i) R1(i, j) = 0.0;  // upper triangular
    Matrix A2q = random_matrix(m2, n, 410 + n + ib + m2);
    Matrix L1 = transposed(R1.cview());
    Matrix A2l = transposed(A2q.cview());

    Matrix Tq(ib, n), Tl(ib, n);
    tsqrt(R1.view(), A2q.view(), Tq.view(), ib);
    tslqt(L1.view(), A2l.view(), Tl.view(), ib);

    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) EXPECT_NEAR(L1(i, j), R1(j, i), 1e-12);
    for (int j = 0; j < m2; ++j)
      for (int i = 0; i < n; ++i) EXPECT_NEAR(A2l(i, j), A2q(j, i), 1e-12);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < std::min(ib, n); ++i)
        EXPECT_NEAR(Tl(i, j), Tq(i, j), 1e-12);
  }
}

TEST_P(LqKernelP, TslqtReconstructs) {
  const auto [n, ib] = GetParam();
  const int m2 = n + 3;
  Matrix A1 = random_lower(n, 500 + n + ib);
  Matrix A2 = random_matrix(n, m2, 510 + n + ib);
  Matrix S0(n, n + m2);
  copy(A1.cview(), S0.view().block(0, 0, n, n));
  copy(A2.cview(), S0.view().block(0, n, n, m2));

  Matrix T(ib, n);
  tslqt(A1.view(), A2.view(), T.view(), ib);

  // Explicit Q ((n+m2) x (n+m2)): I := I * Q via tsmlq(No).
  Matrix Q(n + m2, n + m2);
  for (int i = 0; i < n + m2; ++i) Q(i, i) = 1.0;
  tsmlq(Trans::No, Q.view().block(0, 0, n + m2, n),
        Q.view().block(0, n, n + m2, m2), A2.cview(), T.cview(), ib);
  EXPECT_LT(orthogonality_error(Q.cview()), 1e-12 * (n + m2));

  Matrix L(n, n + m2);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) L(i, j) = A1(i, j);
  Matrix LQ = mul(L.cview(), Q.cview());
  const double scale = 1.0 + norm_fro(S0.cview());
  for (int j = 0; j < n + m2; ++j)
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(LQ(i, j), S0(i, j), 1e-12 * scale);
}

TEST_P(LqKernelP, TsmlqTransZeroesEliminatedTile) {
  const auto [n, ib] = GetParam();
  const int m2 = n;
  Matrix A1 = random_lower(n, 600 + n + ib);
  Matrix A2 = random_matrix(n, m2, 610 + n + ib);
  Matrix C1 = A1, C2 = A2;
  Matrix T(ib, n);
  tslqt(A1.view(), A2.view(), T.view(), ib);
  tsmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) EXPECT_NEAR(C1(i, j), A1(i, j), 1e-11);
  for (int j = 0; j < m2; ++j)
    for (int i = 0; i < n; ++i) EXPECT_NEAR(C2(i, j), 0.0, 1e-11);
}

TEST_P(LqKernelP, TtlqtReconstructsAndKeepsStructure) {
  const auto [n, ib] = GetParam();
  Matrix A1 = random_lower(n, 700 + n + ib);
  Matrix A2 = random_lower(n, 710 + n + ib);
  Matrix S0(n, 2 * n);
  copy(A1.cview(), S0.view().block(0, 0, n, n));
  copy(A2.cview(), S0.view().block(0, n, n, n));

  Matrix T(ib, n);
  ttlqt(A1.view(), A2.view(), T.view(), ib);

  // V2 must stay lower trapezoidal (no fill above the diagonal).
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < j; ++i) EXPECT_EQ(A2(i, j), 0.0);

  Matrix Q(2 * n, 2 * n);
  for (int i = 0; i < 2 * n; ++i) Q(i, i) = 1.0;
  ttmlq(Trans::No, Q.view().block(0, 0, 2 * n, n),
        Q.view().block(0, n, 2 * n, n), A2.cview(), T.cview(), ib);
  EXPECT_LT(orthogonality_error(Q.cview()), 1e-12 * n);

  Matrix L(n, 2 * n);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) L(i, j) = A1(i, j);
  Matrix LQ = mul(L.cview(), Q.cview());
  const double scale = 1.0 + norm_fro(S0.cview());
  for (int j = 0; j < 2 * n; ++j)
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(LQ(i, j), S0(i, j), 1e-12 * scale);
}

TEST_P(LqKernelP, TtmlqTransZeroesEliminatedTriangle) {
  const auto [n, ib] = GetParam();
  Matrix A1 = random_lower(n, 800 + n + ib);
  Matrix A2 = random_lower(n, 810 + n + ib);
  Matrix C1 = A1, C2 = A2;
  Matrix T(ib, n);
  ttlqt(A1.view(), A2.view(), T.view(), ib);
  ttmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) EXPECT_NEAR(C1(i, j), A1(i, j), 1e-11);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(C2(i, j), 0.0, 1e-11);
  }
}

TEST_P(LqKernelP, TtBlockedMatchesReference) {
  // Blocked (gemm_trap) TT kernels against the level-2 reference oracle,
  // with the storage right of each V2 row's support poisoned: that region
  // is unrelated data (e.g. GELQT Householder rows) and must be neither
  // read nor written by either path.
  const auto [n, ib] = GetParam();
  Matrix A1 = random_lower(n, 900 + n + ib);
  Matrix A2 = random_lower(n, 910 + n + ib);
  test::poison_above_diag(A2.view());
  Matrix A1r = A1, A2r = A2;
  Matrix T(ib, n), Tr(ib, n);
  ttlqt(A1.view(), A2.view(), T.view(), ib);
  ttlqt_ref(A1r.view(), A2r.view(), Tr.view(), ib);

  const double scale = 1.0 + norm_fro(A1r.cview());
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      EXPECT_NEAR(A1(i, j), A1r(i, j), 1e-12 * scale) << i << "," << j;
      EXPECT_NEAR(A2(i, j), A2r(i, j), 1e-12 * scale) << i << "," << j;
    }
    for (int i = 0; i < std::min(ib, n); ++i)
      EXPECT_NEAR(T(i, j), Tr(i, j), 1e-12) << "T at " << i << "," << j;
  }
  // Poison above the diagonal must be bitwise untouched by both paths.
  test::expect_poison_above_diag(A2.cview(), "ttlqt V2");
  test::expect_poison_above_diag(A2r.cview(), "ttlqt_ref V2");

  for (Trans trans : {Trans::Yes, Trans::No}) {
    Matrix C1 = random_matrix(n, n, 920 + n), C2 = random_matrix(n, n, 930 + n);
    Matrix C1r = C1, C2r = C2;
    ttmlq(trans, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
    ttmlq_ref(trans, C1r.view(), C2r.view(), A2.cview(), T.cview(), ib);
    const double cscale = 1.0 + norm_fro(C1r.cview()) + norm_fro(C2r.cview());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(C1(i, j), C1r(i, j), 1e-12 * cscale);
        EXPECT_NEAR(C2(i, j), C2r(i, j), 1e-12 * cscale);
      }
  }
}

TEST_P(LqKernelP, TtmlqRoundTripRestoresOperand) {
  const auto [n, ib] = GetParam();
  Matrix A1 = random_lower(n, 940 + n + ib);
  Matrix A2 = random_lower(n, 950 + n + ib);
  Matrix T(ib, n);
  ttlqt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1 = random_matrix(n, n, 960 + n), C2 = random_matrix(n, n, 970 + n);
  Matrix C10 = C1, C20 = C2;
  ttmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  ttmlq(Trans::No, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  const double scale = 1.0 + norm_fro(C10.cview()) + norm_fro(C20.cview());
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(C1(i, j), C10(i, j), 1e-12 * scale);
      EXPECT_NEAR(C2(i, j), C20(i, j), 1e-12 * scale);
    }
}

TEST(LqKernelEdge, TtmlqEmptyOperandIsANoop) {
  // mc == 0 (no rows to update) must early-out cleanly.
  const int n = 16, ib = 4;
  Matrix A1 = random_lower(n, 980), A2 = random_lower(n, 981);
  Matrix T(ib, n);
  ttlqt(A1.view(), A2.view(), T.view(), ib);
  Matrix C1(0, n), C2(0, n);
  ttmlq(Trans::Yes, C1.view(), C2.view(), A2.cview(), T.cview(), ib);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocking, LqKernelP,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{3, 2},
                      std::tuple{7, 8}, std::tuple{8, 3}, std::tuple{16, 4},
                      std::tuple{16, 16}, std::tuple{24, 8},
                      std::tuple{33, 32}, std::tuple{40, 7},
                      std::tuple{64, 32}));

}  // namespace
}  // namespace tbsvd
