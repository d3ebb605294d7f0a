// Band stage validation: band storage, BND2BD bulge chasing (singular
// values preserved vs dense oracle, typed over float and double), BD2VAL
// dqds vs Sturm bisection vs Jacobi, and its relative accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "band/sturm.hpp"
#include "common/rng.hpp"
#include "oracle/oracle.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

BandMatrix random_band(int n, int ku, std::uint64_t seed) {
  Rng rng(seed);
  BandMatrix B(n, 0, ku);
  for (int j = 0; j < n; ++j) {
    for (int i = std::max(0, j - ku); i <= j; ++i) B.at(i, j) = rng.normal();
  }
  return B;
}

TEST(BandMatrix, StorageAndDense) {
  BandMatrix B(6, 1, 2);
  B.at(0, 0) = 1.0;
  B.at(0, 2) = 2.0;
  B.at(3, 2) = 3.0;  // subdiagonal slot
  EXPECT_EQ(B.get(0, 0), 1.0);
  EXPECT_EQ(B.get(0, 2), 2.0);
  EXPECT_EQ(B.get(3, 2), 3.0);
  EXPECT_EQ(B.get(0, 3), 0.0);   // outside band
  EXPECT_EQ(B.get(5, 0), 0.0);   // outside band
  EXPECT_FALSE(B.in_band(0, 3));
  EXPECT_TRUE(B.in_band(3, 2));
  Matrix D = B.to_dense();
  EXPECT_EQ(D(0, 0), 1.0);
  EXPECT_EQ(D(0, 2), 2.0);
  EXPECT_EQ(D(3, 2), 3.0);
  EXPECT_EQ(D(4, 0), 0.0);
}

class Bnd2bdP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Bnd2bdP, PreservesSingularValues) {
  const auto [n, ku] = GetParam();
  BandMatrix B = random_band(n, ku, 1234 + n * 100 + ku);
  const auto ref = jacobi_singular_values(B.to_dense().cview());
  Bidiagonal bd = bnd2bd(B);
  // Build the bidiagonal as a dense matrix and compare spectra.
  Matrix D(n, n);
  for (int i = 0; i < n; ++i) D(i, i) = bd.d[i];
  for (int i = 0; i + 1 < n; ++i) D(i, i + 1) = bd.e[i];
  const auto got = jacobi_singular_values(D.cview());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-11 * (1.0 + ref[0])) << "sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBandwidths, Bnd2bdP,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{4, 2},
                      std::tuple{8, 3}, std::tuple{16, 4}, std::tuple{16, 8},
                      std::tuple{33, 5}, std::tuple{40, 16},
                      std::tuple{64, 8}, std::tuple{50, 2},
                      std::tuple{10, 9}, std::tuple{12, 1}));

TEST(Bnd2bd, AlreadyBidiagonalIsUntouched) {
  const int n = 10;
  BandMatrix B(n, 0, 1);
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    B.at(i, i) = rng.uniform(0.5, 2.0);
    if (i + 1 < n) B.at(i, i + 1) = rng.uniform(-1.0, 1.0);
  }
  Bidiagonal bd = bnd2bd(B);
  for (int i = 0; i < n; ++i) EXPECT_EQ(bd.d[i], B.get(i, i));
  for (int i = 0; i + 1 < n; ++i) EXPECT_EQ(bd.e[i], B.get(i, i + 1));
}

TEST(Bnd2bd, DiagonalInput) {
  BandMatrix B(5, 0, 3);
  for (int i = 0; i < 5; ++i) B.at(i, i) = i + 1.0;
  Bidiagonal bd = bnd2bd(B);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(bd.d[i], i + 1.0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bd.e[i], 0.0);
}

// ------------------------------------------------ typed BND2BD suite ---

// The Householder chase in float and double against the Jacobi oracle of
// the same band, promoted to double. Both spectra are taken in double
// after dividing out `scale`, so only the chase's own rounding is
// measured. The bound 4 n eps_T sigma_max is over 10x the worst double
// error measured on these shapes (which includes the oracle's own
// rounding) and far above the float one.
template <class T>
BandMatrixT<T> random_band_t(int n, int ku, std::uint64_t seed,
                             double scale = 1.0) {
  Rng rng(seed);
  BandMatrixT<T> B(n, 0, ku);
  for (int j = 0; j < n; ++j) {
    for (int i = std::max(0, j - ku); i <= j; ++i) {
      B.at(i, j) = static_cast<T>(scale * rng.normal());
    }
  }
  return B;
}

template <class T>
void expect_chase_preserves_sv(const BandMatrixT<T>& B, double scale = 1.0) {
  const int n = B.n();
  Matrix A(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = std::max(0, j - B.ku()); i <= j; ++i) {
      A(i, j) = static_cast<double>(B.get(i, j)) / scale;
    }
  }
  const auto ref = jacobi_singular_values(A.cview());
  const BidiagonalT<T> bd = bnd2bd<T>(B);
  ASSERT_EQ(bd.d.size(), static_cast<std::size_t>(n));
  Matrix D(n, n);
  for (int i = 0; i < n; ++i) D(i, i) = static_cast<double>(bd.d[i]) / scale;
  for (int i = 0; i + 1 < n; ++i) {
    D(i, i + 1) = static_cast<double>(bd.e[i]) / scale;
  }
  const auto got = jacobi_singular_values(D.cview());
  ASSERT_EQ(got.size(), ref.size());
  const double tol = test::tol_eps<T>(4.0 * n) * ref[0];
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], tol) << "sv " << i;
  }
}

template <class T>
class Bnd2bdTyped : public ::testing::Test {};
using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Bnd2bdTyped, Scalars);

// The bands the pipeline produces: ge2val_tall's n = 384, nb = 64 and a
// 128 x 96 tiled batch member's n = 96, nb = 16.
TYPED_TEST(Bnd2bdTyped, ProductionShapes) {
  expect_chase_preserves_sv(random_band_t<TypeParam>(384, 64, 71));
  expect_chase_preserves_sv(random_band_t<TypeParam>(96, 16, 72));
}

// n not a multiple of ku: every sweep ends on a clipped block.
TYPED_TEST(Bnd2bdTyped, RaggedLastBlock) {
  expect_chase_preserves_sv(random_band_t<TypeParam>(97, 16, 73));
  expect_chase_preserves_sv(random_band_t<TypeParam>(50, 7, 74));
}

// ku >= n - 1: each sweep is a single step on a clipped block.
TYPED_TEST(Bnd2bdTyped, BandAtLeastMatrixWidth) {
  expect_chase_preserves_sv(random_band_t<TypeParam>(20, 19, 75));
  expect_chase_preserves_sv(random_band_t<TypeParam>(12, 30, 76));
}

// n > 9 ku: long sweeps, and the working band's last columns are reached
// by many blocks.
TYPED_TEST(Bnd2bdTyped, ManyBlocksPerSweep) {
  expect_chase_preserves_sv(random_band_t<TypeParam>(200, 8, 77));
}

// An all-zero column and an all-zero row inside the band: reflectors with
// a zero pivot or a zero tail.
TYPED_TEST(Bnd2bdTyped, ZeroColumnAndRowInsideBand) {
  const int n = 64, ku = 8;
  BandMatrixT<TypeParam> B = random_band_t<TypeParam>(n, ku, 78);
  for (int i = 20 - ku; i <= 20; ++i) B.at(i, 20) = TypeParam(0);
  for (int j = 40; j <= 40 + ku; ++j) B.at(40, j) = TypeParam(0);
  expect_chase_preserves_sv(B);
}

// Entries near the ends of the range. The small scales put reflector
// norms below larfg's rescue threshold min/eps (~1e-292 double, ~1e-31
// float), so the rescue loop runs.
TYPED_TEST(Bnd2bdTyped, ExtremeScales) {
  const bool is_float = sizeof(TypeParam) == sizeof(float);
  const double big = is_float ? 1e30 : 1e300;
  const double small = is_float ? 1e-33 : 1e-300;
  for (const double scale : {big, small}) {
    SCOPED_TRACE(scale);
    expect_chase_preserves_sv(random_band_t<TypeParam>(48, 8, 79, scale),
                              scale);
  }
}

class Bd2valP : public ::testing::TestWithParam<int> {};

TEST_P(Bd2valP, MatchesSturmAndJacobi) {
  const int n = GetParam();
  Rng rng(999 + n);
  std::vector<double> d(n), e(std::max(0, n - 1));
  for (auto& v : d) v = rng.normal();
  for (auto& v : e) v = rng.normal();

  auto qr = bd2val(d, e);
  auto st = sturm_singular_values(d, e);
  ASSERT_EQ(qr.size(), static_cast<std::size_t>(n));
  double smax = st.empty() ? 1.0 : st[0];
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(qr[i], st[i], 1e-10 * (1.0 + smax)) << "sv " << i;
  }

  Matrix D(n, n);
  for (int i = 0; i < n; ++i) D(i, i) = d[i];
  for (int i = 0; i + 1 < n; ++i) D(i, i + 1) = e[i];
  auto jac = jacobi_singular_values(D.cview());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(qr[i], jac[i], 1e-10 * (1.0 + smax)) << "sv " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Bd2valP,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 30, 64, 100,
                                           200));

TEST(Bd2val, ZeroMatrix) {
  auto sv = bd2val(std::vector<double>(5, 0.0), std::vector<double>(4, 0.0));
  for (double s : sv) EXPECT_EQ(s, 0.0);
}

TEST(Bd2val, ZeroDiagonalEntries) {
  // Exact zero on the diagonal exercises the zero-shift path.
  std::vector<double> d = {1.0, 0.0, 2.0, 0.5, 0.0};
  std::vector<double> e = {0.5, 0.7, -0.3, 0.2};
  auto qr = bd2val(d, e);
  auto st = sturm_singular_values(d, e);
  for (std::size_t i = 0; i < qr.size(); ++i)
    EXPECT_NEAR(qr[i], st[i], 1e-11);
}

TEST(Bd2val, ClusteredValues) {
  const int n = 50;
  std::vector<double> d(n, 1.0), e(n - 1, 1e-8);
  auto qr = bd2val(d, e);
  for (double s : qr) EXPECT_NEAR(s, 1.0, 1e-6);
}

TEST(Bd2val, HugeDynamicRange) {
  std::vector<double> d = {1e150, 1.0, 1e-150};
  std::vector<double> e = {1e10, 1e-10};
  auto qr = bd2val(d, e);
  EXPECT_GT(qr[0], 9e149);
  ASSERT_EQ(qr.size(), 3u);
}

// dqds computes every singular value to high relative accuracy, so the
// values of a bidiagonal whose spectrum spans many decades still multiply
// to |det B| = prod |d_i|: sum log sigma_i = sum log |d_i| to c n eps. An
// absolute deflation floor (eps * sigma_max) would lose the small values.
template <class T>
class Bd2valTyped : public ::testing::Test {};
TYPED_TEST_SUITE(Bd2valTyped, Scalars);

template <class T>
long double log_det_gap(const std::vector<T>& d, const std::vector<T>& sv) {
  long double gap = 0;
  for (const T s : sv) gap += std::log(static_cast<long double>(s));
  for (const T x : d) gap -= std::log(std::fabs(static_cast<long double>(x)));
  return gap;
}

TYPED_TEST(Bd2valTyped, ValuesMultiplyToDeterminant) {
  using T = TypeParam;
  const double eps = std::numeric_limits<T>::epsilon();
  const int n = 40;
  const auto grade = [n](int i) {
    return std::pow(10.0, -12.0 * i / (n - 1));
  };
  std::vector<T> dt(n), et(n - 1), db(n), eb(n - 1);
  for (int i = 0; i < n; ++i) {
    dt[i] = static_cast<T>(grade(i));
    db[i] = static_cast<T>(grade(n - 1 - i));
  }
  for (int i = 0; i + 1 < n; ++i) {
    et[i] = static_cast<T>(0.5 * grade(i));
    eb[i] = static_cast<T>(0.5 * grade(n - 2 - i));
  }
  for (const auto& [d, e] : {std::pair{dt, et}, std::pair{db, eb}}) {
    const std::vector<T> sv = bd2val<T>(d, e);
    ASSERT_EQ(sv.size(), d.size());
    EXPECT_GT(sv.back(), T(0));
    EXPECT_LE(std::fabs(log_det_gap(d, sv)), 4.0 * n * eps);
  }
}

// HugeDynamicRange's values one by one: d = {1e150, 1, 1e-150} in double
// (1e±15 in float, whose qd arrays hold squares), so |det B| = 1.
TYPED_TEST(Bd2valTyped, HugeDynamicRangeKeepsEveryValue) {
  using T = TypeParam;
  const double eps = std::numeric_limits<T>::epsilon();
  const bool is_float = sizeof(T) == sizeof(float);
  const double big = is_float ? 1e15 : 1e150;
  const double off = is_float ? 1e1 : 1e10;
  const std::vector<T> d = {static_cast<T>(big), T(1), static_cast<T>(1 / big)};
  const std::vector<T> e = {static_cast<T>(off), static_cast<T>(1 / off)};
  const std::vector<T> sv = bd2val<T>(d, e);
  ASSERT_EQ(sv.size(), 3u);
  for (const T s : sv) EXPECT_GT(s, T(0));
  const long double prod = static_cast<long double>(sv[0]) * sv[2] * sv[1];
  EXPECT_NEAR(static_cast<double>(prod), 1.0, 8.0 * eps);
  EXPECT_LE(std::fabs(log_det_gap(d, sv)), 8.0 * eps);
}

TEST(Sturm, CountIsMonotonic) {
  std::vector<double> d = {3.0, 1.0, 2.0};
  std::vector<double> e = {0.5, 0.25};
  int prev = 0;
  for (double x = 0.0; x < 5.0; x += 0.25) {
    const int c = tgk_sturm_count(d, e, x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  // All 6 eigenvalues of TGK are below a large bound; half below 0+.
  EXPECT_EQ(tgk_sturm_count(d, e, 100.0), 6);
  EXPECT_EQ(tgk_sturm_count(d, e, 1e-14), 3);
}

TEST(Sturm, ExactOnDiagonal) {
  std::vector<double> d = {4.0, 2.0, 1.0};
  std::vector<double> e = {0.0, 0.0};
  auto sv = sturm_singular_values(d, e);
  EXPECT_NEAR(sv[0], 4.0, 1e-12);
  EXPECT_NEAR(sv[1], 2.0, 1e-12);
  EXPECT_NEAR(sv[2], 1.0, 1e-12);
}

}  // namespace
}  // namespace tbsvd
