#include "band/bd2val.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "band/sturm.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"

namespace tbsvd {

namespace {

enum class Step { Ok, LateFail, EarlyFail };

// Shifted dqds (LAPACK xLASQ2-xLASQ6) on the qd arrays q = d^2, e = e^2,
// interleaved in one buffer: z[4k + p] = q_k, z[4k + 2 + p] = e_k, where
// parity p selects the ping or pong copy. A transform reads p and writes
// 1 - p. Blocks run bottom-up, each with the shift sigma applied to it
// (eigenvalues plus sigma are squared singular values). A split freezes the
// part above at parity 0 with -sigma in the e slot below it, so e <= 0
// marks a block's bottom and holds its sigma. Finished values go to z[4k].
template <class T>
class Dqds {
 public:
  Dqds(T* z, int n, long long budget) : z_(z), budget_(budget), n_(n) {}

  long long transforms = 0;  ///< failed ones included

  /// Runs every block to completion; false when the budget ran out.
  bool run() {
    for (int hi = n_ - 1; hi >= 0; hi = lo_ - 1) {
      // The block ending at hi; its first transform has zero shift.
      hi_ = n0in_ = lo_ = hi;
      p_ = 0;
      sigma_ = -e(hi);
      desig_ = dmin_ = -T(0);
      while (lo_ > 0 && e(lo_ - 1) > T(0)) --lo_;
      while (hi_ >= lo_) {
        if (!deflate() && !step()) return false;
      }
    }
    return true;
  }

 private:
  static constexpr T kEps = std::numeric_limits<T>::epsilon();
  static constexpr T kTol = T(100) * kEps, kTol2 = kTol * kTol;

  T& q(int k) const { return z_[4 * k + p_]; }
  T& e(int k) const { return z_[4 * k + 2 + p_]; }

  void finish(T lambda) { z_[4 * hi_--] = lambda + (sigma_ + desig_); }

  // Deflates one value (1x1 block or negligible last e) or two (2x2 block
  // or negligible second-to-last e). The 2x2's larger eigenvalue is a sum of
  // positive terms (hypot: no overflow), the smaller comes from the product
  // qa qb; both stay relatively accurate.
  bool deflate() {
    if (hi_ == lo_ || e(hi_ - 1) <= kTol2 * (sigma_ + q(hi_))) {
      finish(q(hi_));
      return true;
    }
    if (hi_ > lo_ + 1 && e(hi_ - 2) > kTol2 * sigma_) return false;
    const T qa = q(hi_ - 1), qb = q(hi_), ea = e(hi_ - 1);
    const T big = T(0.5) * ((qa + qb + ea) +
                            std::hypot((qa - qb) + ea,
                                       2 * std::sqrt(qb) * std::sqrt(ea)));
    finish(big > T(0) ? qb * (qa / big) : T(0));
    finish(big);
    return true;
  }

  // One accepted transform: flip a block that grades upward, so small values
  // converge at the bottom; shift; after a negative pivot retry with (tau +
  // dn)(1 - 2 eps) if only the last failed, else tau / 4, then zero.
  bool step() {
    if ((dmin_ <= T(0) || hi_ < n0in_) && T(1.5) * q(lo_) < q(hi_)) {
      for (int i = lo_, j = hi_; i < j; ++i, --j) std::swap(q(i), q(j));
      for (int i = lo_, j = hi_ - 1; i < j; ++i, --j) std::swap(e(i), e(j));
      dmin_ = -T(0);  // the pivots described the unflipped block
      n0in_ = hi_;
    }
    T tau = shift(n0in_ - hi_);
    n0in_ = hi_;
    for (int fails = 0;; ++fails) {
      if (transforms == budget_) return false;
      ++transforms;
      if (fails == 2) tau = T(0);
      const Step st = tau == 0 ? transform<true>(tau) : transform<false>(tau);
      if (st == Step::Ok) break;
      if (st == Step::LateFail && dmin1_ > T(0) &&
          z_[4 * hi_ - 1 - p_] < kTol * (sigma_ + dn1_) &&
          std::fabs(dn_) < kTol * sigma_) {
        z_[4 * hi_ + 1 - p_] = dmin_ = T(0);  // convergence hidden by dn < 0
        break;
      }
      tau = st == Step::LateFail ? (tau + dn_) * (1 - 2 * kEps) : tau / 4;
      if (g_ > T(0)) g_ = st == Step::LateFail ? T(0) : T(-1);
    }
    p_ = 1 - p_;
    const T t = sigma_ + tau;  // sigma += tau, rounding error kept in desig
    desig_ += sigma_ >= tau ? (sigma_ - t) + tau : (tau - t) + sigma_;
    sigma_ = t;
    if (p_ == 0) split();
    return true;
  }

  // Splits the block at the lowest e that is negligible against the q it
  // fed (previous iterate, parity 1) or against sigma. Runs at parity 0.
  void split() {
    for (int k = hi_ - 3; k >= lo_; --k) {
      if (z_[4 * k + 3] <= kTol2 * q(k) || e(k) <= kTol2 * sigma_) {
        e(k) = -(sigma_ + desig_);
        lo_ = k + 1;
        return;
      }
    }
  }

  // The dqds transform of xLASQ5; it stops at the first negative pivot
  // before the last. With kSafe it is the zero-shift dqd of xLASQ6, guarded
  // against zero and overflowing pivots, so it cannot fail on nonnegative
  // data. Records the pivots shift() reads: dmin over all, dmin1 without the
  // last, dmin2 without the last two; dn, dn1, dn2 the last three.
  template <bool kSafe>
  Step transform(T tau) {
    constexpr T kSafmin = std::numeric_limits<T>::min();
    const int o = 1 - p_;
    T d = q(lo_) - tau;
    dmin_ = dmin1_ = dmin2_ = dn1_ = dn2_ = d;
    for (int k = lo_; k < hi_; ++k) {
      if (!kSafe && d < T(0)) return Step::EarlyFail;
      const T ek = e(k), qn = q(k + 1), qh = d + ek;
      dmin2_ = dmin1_;
      dmin1_ = dmin_;
      dn2_ = dn1_;
      dn1_ = d;
      z_[4 * k + o] = qh;
      if (!kSafe || (kSafmin * qn < qh && kSafmin * qh < qn)) {
        const T t = qn / qh;
        z_[4 * k + 2 + o] = ek * t;
        d = d * t - tau;
      } else if (qh > T(0)) {  // ratios of at most one
        z_[4 * k + 2 + o] = qn * (ek / qh);
        d = qn * (d / qh);
      } else {
        z_[4 * k + 2 + o] = T(0);
        d = qn;
      }
      dmin_ = std::min(dmin_, d);
    }
    z_[4 * hi_ + o] = dn_ = d;
    if (d >= T(0)) return Step::Ok;
    return d < T(0) ? Step::LateFail : Step::EarlyFail;  // NaN is early
  }

  // The shift of xLASQ4, aimed just below the smallest eigenvalue of the
  // block from the last pivots and the number of values deflated since.
  T shift(int deflated) {
    const T g = g_;
    g_ = T(0);
    if (dmin_ < T(0) || (dmin_ == T(0) && deflated == 0)) return -dmin_;
    if (deflated == 1 && dmin1_ == dn1_ && dmin2_ == dn2_) {
      // Rayleigh-quotient residual bound below dmin1. The products of e / q
      // up the block estimate how much of the bottom eigenvector lies above.
      const T s = dmin1_ / 3;
      T b = T(1), sum = T(0);
      for (int k = hi_ - 1; k >= lo_ && b != T(0); --k) {
        const T prev = b;
        if (e(k) > q(k)) return s;
        b *= e(k) / q(k);
        sum += b;
        if (k < hi_ - 1 && 100 * std::max(b, prev) < sum) break;
      }
      const T b2 = std::sqrt(T(1.05) * sum), a2 = dmin1_ / (1 + b2 * b2);
      const T gap2 = T(0.5) * dmin2_ - a2;
      return std::max(s, gap2 > T(0) && gap2 > b2 * a2
                             ? a2 * (1 - T(1.01) * a2 * (b2 / gap2) * b2)
                             : a2 * (1 - T(1.01) * b2));
    }
    if (deflated == 1) return dmin1_ == dn1_ ? dmin1_ / 2 : dmin1_ / 4;
    if (deflated > 1) return deflated == 2 ? dmin2_ / 4 : T(0);
    if (dmin_ == dn_ && dmin1_ == dn1_) {
      // The last two pivots are the smallest: bound the bottom eigenvalue
      // by its gap to the trailing 2x2.
      const T b1 = std::sqrt(q(hi_)) * std::sqrt(e(hi_ - 1));
      const T b2 = std::sqrt(q(hi_ - 1)) * std::sqrt(e(hi_ - 2));
      const T a2 = q(hi_ - 1) + e(hi_ - 1), gap2 = T(0.75) * dmin2_ - a2;
      const T gap1 = gap2 > T(0) && gap2 > b2 ? a2 - dn_ - (b2 / gap2) * b2
                                              : a2 - dn_ - (b1 + b2);
      if (gap1 > T(0) && gap1 > b1) {
        return std::max(dn_ - (b1 / gap1) * b1, T(0.5) * dmin_);
      }
      T s = dn_ > b1 ? dn_ - b1 : T(0);
      if (a2 > b1 + b2) s = std::min(s, a2 - (b1 + b2));
      return std::max(s, dmin_ / 3);
    }
    // No gap estimate: take a growing fraction of dmin while that succeeds,
    // a small one after it failed early.
    g_ = g > T(0) ? g + (1 - g) / 3 : g < T(0) ? T(1) / 12 : T(0.25);
    return g_ * dmin_;
  }

  T* z_;
  long long budget_;
  int n_, lo_ = 0, hi_ = 0, p_ = 0, n0in_ = 0;
  T sigma_ = 0, desig_ = 0, g_ = 0;
  T dmin_ = 0, dmin1_ = 0, dmin2_ = 0, dn_ = 0, dn1_ = 0, dn2_ = 0;
};

}  // namespace

template <class T>
std::vector<T> bd2val(std::vector<T> d, std::vector<T> e,
                      const Bd2valOptions& opts, Bd2valInfo* info) {
  const int n = static_cast<int>(d.size());
  TBSVD_CHECK(static_cast<int>(e.size()) >= std::max(0, n - 1),
              "bd2val: e must have n-1 entries");
  TBSVD_CHECK(opts.max_sweeps_per_value >= 0,
              "bd2val: max_sweeps_per_value must be >= 0");
  if (info != nullptr) *info = Bd2valInfo{};
  if (n == 0) return {};
  if (!all_finite(d.data(), d.size()) ||
      !all_finite(e.data(), static_cast<std::size_t>(n - 1))) {
    // NaN never deflates: reject it rather than spin or return NaN values.
    throw numerical_hazard_error("bd2val: non-finite entry in bidiagonal");
  }

  T smax = T(0);
  for (int i = 0; i < n; ++i) smax = std::max(smax, std::fabs(d[i]));
  for (int i = 0; i + 1 < n; ++i) smax = std::max(smax, std::fabs(e[i]));
  if (smax == T(0)) return std::vector<T>(n, T(0));

  long long budget = static_cast<long long>(opts.max_sweeps_per_value) * n;
  if (TBSVD_FAULT_FIRE("band.bd2val.force_stall")) budget = 0;

  // Scale by a power of two (exactly) so the largest entry lies just below
  // sqrt(eps / safmin), as xLASQ1 does: the squares cannot overflow, and
  // small entries keep the exponent range a division by smax would spend.
  const int ex = std::ilogb(std::sqrt(std::numeric_limits<T>::epsilon() /
                                      std::numeric_limits<T>::min())) -
                 std::ilogb(smax) - 1;
  const auto sq = [ex](T x) { return std::scalbn(x, ex) * std::scalbn(x, ex); };
  std::vector<T> z(4 * static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    z[4 * k] = sq(d[k]);
    z[4 * k + 2] = k + 1 < n ? sq(e[k]) : -T(0);
  }
  Dqds<T> dqds(z.data(), n, budget);
  const bool converged = dqds.run();

  if (info != nullptr) info->qr_iterations = dqds.transforms;
  if (!converged) {
    if (!opts.allow_bisection_fallback) {
      throw convergence_error(
          "bd2val: dqds stalled and the bisection fallback is disabled");
    }
    // Shifted qd arrays no longer carry the spectrum, so bisection runs on
    // the caller's bidiagonal; it always terminates.
    if (info != nullptr) {
      info->bisection_fallback = true;
      info->status = Status::Degraded;
    }
    return sturm_singular_values<T>(d, e);
  }

  for (int k = 0; k < n; ++k) d[k] = std::scalbn(std::sqrt(z[4 * k]), -ex);
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

#define TBSVD_INSTANTIATE_BD2VAL(T)                           \
  template std::vector<T> bd2val<T>(std::vector<T>, std::vector<T>, \
                                    const Bd2valOptions&, Bd2valInfo*);

TBSVD_INSTANTIATE_BD2VAL(float)
TBSVD_INSTANTIATE_BD2VAL(double)

#undef TBSVD_INSTANTIATE_BD2VAL

}  // namespace tbsvd
