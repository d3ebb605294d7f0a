#include "band/bnd2bd.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "lac/householder.hpp"

namespace tbsvd {

namespace {

// Working band of the chase for bandwidth b >= 2. Sweep i leaves fill
// behind it: up to b - 1 entries below the diagonal inside the diagonal
// blocks, and a bulge reaching 2b - 1 above it. The storage is a
// column-major band with 2b superdiagonals and b subdiagonals (LAPACK
// ld = 3b + 1), so entry (i, j) sits at 2b + i + 3b j: an ordinary
// column-major matrix with leading dimension 3b, shifted by 2b. Any block
// inside that envelope is therefore a plain MatrixViewT, and the
// lac/householder reflector kernels run on it directly.
template <class T>
class ChaseBand {
 public:
  explicit ChaseBand(const BandMatrixT<T>& B)
      : n_(B.n()), b_(B.ku()), ld_(3 * B.ku()),
        buf_(static_cast<std::size_t>(B.n()) * (3 * B.ku() + 1), T(0)),
        vl_(b_), vr_(b_), work_(2 * b_) {
    // Column j of B holds rows j - b .. j at offsets b + i - j.
    for (int j = 0; j < n_; ++j) {
      const int i0 = std::max(0, j - b_);
      const T* src = B.col(j) + (b_ + i0 - j);
      std::copy(src, src + (j - i0 + 1), &at(i0, j));
    }
  }

  [[nodiscard]] T& at(int i, int j) noexcept {
    return buf_[static_cast<std::size_t>(j) * ld_ + 2 * b_ + i];
  }

  // Step k of sweep i works on the column block [c0, c1] with
  // c0 = i + 1 + k b and c1 = min(c0 + b - 1, n - 1):
  //   k = 0: take the right reflector from row i over [c0, c1];
  //   k > 0: apply step k - 1's left reflector to the block on the right of
  //          its diagonal block (rows c0 - b .. c0 - 1), and take the right
  //          reflector from that block's first row.
  // Then apply the right reflector to the rows below the row it came from
  // down to c1 (the rest of that block and the diagonal block
  // [c0, c1] x [c0, c1]), take the left reflector from column c0 of the
  // diagonal block, and apply it to the rest of the diagonal block. Its
  // application to the next block right is left to step k + 1.
  //
  // Step (i, k) touches only columns [i + 1 + k b, i + (k + 1) b]. It
  // therefore depends only on (i, k - 1), which also hands it the left
  // reflector, and on (i - 1, min(k + 1, last step of sweep i - 1)), the
  // last step of the previous sweep to touch those columns.
  void step(int i, int k) {
    const int c0 = i + 1 + k * b_;
    const int c1 = std::min(c0 + b_ - 1, n_ - 1);
    const int w = c1 - c0 + 1;
    const int r = (k == 0) ? i : c0 - b_;
    if (k > 0) {
      larf_left<T>(tau_l_, vl_.data(), 1, block(r, c0, b_, w), work_.data());
    }

    T* row = &at(r, c0);
    const T tau_r = larfg<T>(w, row[0], row + ld_, ld_);
    take_reflector(row, ld_, w, vr_.data());
    larf_right<T>(tau_r, vr_.data(), 1, block(r + 1, c0, c1 - r, w),
                  work_.data());

    T* col = &at(c0, c0);
    tau_l_ = larfg<T>(w, col[0], col + 1, 1);
    take_reflector(col, 1, w, vl_.data());
    if (w > 1) {
      larf_left<T>(tau_l_, vl_.data(), 1, block(c0, c0 + 1, w, w - 1),
                   work_.data());
    }
  }

 private:
  [[nodiscard]] MatrixViewT<T> block(int i, int j, int m, int n) noexcept {
    return {&at(i, j), m, n, ld_};
  }

  // Move the reflector tail larfg left in x[inc], x[2 inc], ... into v
  // (with v[0] = 1) and zero its band slots: they are annihilated entries.
  static void take_reflector(T* x, int inc, int w, T* v) noexcept {
    v[0] = T(1);
    for (int q = 1; q < w; ++q) {
      v[q] = x[q * inc];
      x[q * inc] = T(0);
    }
  }

  int n_;
  int b_;
  int ld_;
  std::vector<T> buf_;
  std::vector<T> vl_;  // left reflector handed from step k - 1 to step k
  std::vector<T> vr_;
  std::vector<T> work_;
  T tau_l_ = T(0);
};

}  // namespace

template <class T>
BidiagonalT<T> bnd2bd(const BandMatrixT<T>& B) {
  TBSVD_CHECK(B.kl() == 0, "bnd2bd expects an upper-band matrix (kl = 0)");
  const int n = B.n();
  const int b = B.ku();
  BidiagonalT<T> out;
  out.d.resize(n, T(0));
  out.e.resize(std::max(0, n - 1), T(0));
  if (n == 0) return out;

  if (b < 2) {
    for (int i = 0; i < n; ++i) out.d[i] = B.get(i, i);
    for (int i = 0; i + 1 < n; ++i) out.e[i] = B.get(i, i + 1);
  } else {
    ChaseBand<T> W(B);
    // Rows n - 2 and n - 1 are bidiagonal once sweep n - 3 is done.
    for (int i = 0; i + 2 < n; ++i) {
      for (int k = 0; i + 1 + k * b < n; ++k) W.step(i, k);
    }
    for (int i = 0; i < n; ++i) out.d[i] = W.at(i, i);
    for (int i = 0; i + 1 < n; ++i) out.e[i] = W.at(i, i + 1);
  }
  if (TBSVD_FAULT_FIRE("band.bnd2bd.poison_nan")) {
    out.d[0] = std::numeric_limits<T>::quiet_NaN();
  }
  return out;
}

template BidiagonalT<float> bnd2bd<float>(const BandMatrixT<float>&);
template BidiagonalT<double> bnd2bd<double>(const BandMatrixT<double>&);

}  // namespace tbsvd
