// Cross-driver differential test: every singular-value driver agrees with
// the one-sided Jacobi oracle within 16 max(m, n) eps_T sigma_1, the bound
// perfbench checks. Inputs are seeded random tall and wide shapes (Chan's
// 5m = 6n switch on both sides), unscaled and scaled towards both ends of
// the working precision's range (1e+-300 in double, 1e+-30 in float).
// Drivers that require m >= n get the transpose of a wide input; the
// spectrum is transpose-invariant. BD2VAL is checked on its own on
// graded, split and clustered bidiagonals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "band/bd2val.hpp"
#include "baseline/chan.hpp"
#include "baseline/gebrd.hpp"
#include "batched/batched.hpp"
#include "common/rng.hpp"
#include "core/svd.hpp"
#include "oracle/oracle.hpp"
#include "rsvd/rsvd.hpp"
#include "test_harness.hpp"

namespace tbsvd {
namespace {

template <class T>
class Differential : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Differential, Precisions);

template <class T>
std::vector<double> scales() {
  if constexpr (std::is_same_v<T, float>) {
    return {1.0, 1e30, 1e-30};
  } else {
    return {1.0, 1e300, 1e-300};
  }
}

template <class T>
double bound(int m, int n, double sigma1) {
  return test::tol_eps<T>(16.0 * std::max(m, n)) * sigma1;
}

// Fixed shapes around Chan's switch (97x40 and 48x40 take the preQR,
// 47x40 and 40x40 do not; the wide ones mirror them), then seeded random
// shapes with at least 9 columns on the short side so the truncated driver
// has k = n - 8 >= 1.
std::vector<std::pair<int, int>> shapes() {
  std::vector<std::pair<int, int>> s = {{97, 40}, {48, 40}, {47, 40},
                                        {40, 40}, {30, 75}, {40, 47}};
  Rng rng(16);
  for (int i = 0; i < 4; ++i) {
    const int a = 9 + static_cast<int>(rng.below(90));
    const int b = 9 + static_cast<int>(rng.below(90));
    s.emplace_back(a, b);
  }
  return s;
}

template <class T>
using ValuesFn = std::function<std::vector<double>(ConstMatrixViewT<T>)>;

// Every values driver over an m >= n input.
template <class T>
std::vector<std::pair<std::string, ValuesFn<T>>> tall_drivers() {
  std::vector<std::pair<std::string, ValuesFn<T>>> d;
  for (const TreeKind tree : {TreeKind::FlatTS, TreeKind::FlatTT,
                              TreeKind::Greedy, TreeKind::Auto}) {
    for (const BidiagAlg alg : {BidiagAlg::Bidiag, BidiagAlg::RBidiag}) {
      GesvdOptions o;
      o.nb = 16;  // several tile rows and columns, so the trees differ
      o.ge2bnd.ib = 8;
      o.ge2bnd.qr_tree = tree;
      o.ge2bnd.lq_tree = tree;
      o.ge2bnd.alg = alg;
      d.emplace_back(std::string("gesvd_values/") + tree_name(tree) +
                         (alg == BidiagAlg::Bidiag ? "/BIDIAG" : "/R-BIDIAG"),
                     [o](ConstMatrixViewT<T> A) {
                       return gesvd_values<T>(A, o);
                     });
    }
  }
  d.emplace_back("gebrd_singular_values", [](ConstMatrixViewT<T> A) {
    return gebrd_singular_values<T>(A);
  });
  d.emplace_back("chan_singular_values", [](ConstMatrixViewT<T> A) {
    return chan_singular_values<T>(A);
  });
  return d;
}

void expect_agree(const std::vector<double>& got,
                  const std::vector<double>& ref, double tol,
                  const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], tol) << what << " sv " << i;
  }
}

TYPED_TEST(Differential, EveryDriverMatchesJacobi) {
  using T = TypeParam;
  const auto drivers = tall_drivers<T>();
  std::uint64_t seed = 1600;
  for (const auto& [m, n] : shapes()) {
    const MatrixT<T> A0 = test::random_matrix<T>(m, n, ++seed);
    const std::vector<double> ref0 = jacobi_singular_values<T>(A0.cview());
    for (const double s : scales<T>()) {
      MatrixT<T> A(m, n);
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i) {
          A(i, j) = static_cast<T>(static_cast<double>(A0(i, j)) * s);
        }
      }
      std::vector<double> ref = ref0;
      for (double& v : ref) v *= s;
      const double tol = bound<T>(m, n, ref[0]);
      char scale[16];
      std::snprintf(scale, sizeof scale, "%g", s);
      const std::string at = std::to_string(m) + "x" + std::to_string(n) +
                             " scale " + scale;
      const MatrixT<T> At = m >= n ? A : test::transposed<T>(A.cview());

      for (const auto& [name, run] : drivers) {
        expect_agree(run(At.cview()), ref, tol, name + " " + at);
      }

      const auto batch = batched::svd<T>({A.cview()});
      ASSERT_TRUE(batch.reports[0].ok()) << at << batch.reports[0].message;
      expect_agree(batch.values[0], ref, tol, "batched::svd " + at);

      // k >= n - 8: the k + 8 sketch columns span the whole column space.
      const int k = std::min(m, n) - 8;
      const auto tr = gesvd_truncated<T>(At.cview(), k);
      expect_agree(tr.values,
                   std::vector<double>(ref.begin(), ref.begin() + k), tol,
                   "gesvd_truncated " + at);
    }
  }
}

// BD2VAL on structured bidiagonals, against Jacobi on the dense matrix.
TYPED_TEST(Differential, Bd2valMatchesJacobiOnStructuredBidiagonals) {
  using T = TypeParam;
  const int n = 40;
  Rng rng(1601);
  std::vector<std::pair<std::string, BidiagonalT<T>>> cases;
  auto add = [&](const std::string& name, auto dfun, auto efun) {
    BidiagonalT<T> b{std::vector<T>(n), std::vector<T>(n - 1)};
    for (int i = 0; i < n; ++i) b.d[i] = static_cast<T>(dfun(i));
    for (int i = 0; i < n - 1; ++i) b.e[i] = static_cast<T>(efun(i));
    cases.emplace_back(name, std::move(b));
  };
  const auto grade = [n](int i) {
    return std::pow(10.0, -12.0 * i / (n - 1));
  };
  const auto normal = [&](int) { return rng.normal(); };
  add("graded top-heavy", grade, [&](int i) { return 0.5 * grade(i); });
  add("graded bottom-heavy", [&](int i) { return grade(n - 1 - i); },
      [&](int i) { return 0.5 * grade(n - 2 - i); });
  add("split", normal, [&](int i) {
    return (i == n / 3 || i == 2 * n / 3) ? 0.0 : rng.normal();
  });
  add("zero diagonal", [&](int i) { return i == n / 2 ? 0.0 : rng.normal(); },
      normal);
  add("clustered", [](int i) { return 1.0 + 1e-6 * (i % 3); },
      [&](int) { return 1e-8 * rng.normal(); });

  for (const auto& [name, b] : cases) {
    Matrix B(n, n);
    for (int i = 0; i < n; ++i) B(i, i) = static_cast<double>(b.d[i]);
    for (int i = 0; i < n - 1; ++i) B(i, i + 1) = static_cast<double>(b.e[i]);
    const std::vector<double> ref = jacobi_singular_values<double>(B.cview());
    const std::vector<T> got = bd2val<T>(b);
    expect_agree(std::vector<double>(got.begin(), got.end()), ref,
                 bound<T>(n, n, ref[0]), "bd2val " + name);
  }
}

}  // namespace
}  // namespace tbsvd
