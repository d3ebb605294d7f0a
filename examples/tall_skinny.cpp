// BIDIAG vs R-BIDIAG on tall-and-skinny matrices (Sections III.C, IV.C,
// VI.C): times both algorithms across aspect ratios, showing R-BIDIAG's
// takeover, and prints the critical-path crossover delta_s for the same
// tile geometry. Also factors the tallest case through the TSQR driver
// under each reduction tree (src/rsvd/tsqr.hpp).
//
// Tile geometry comes from the autotuner's 0-sentinels: run
// tools/autotune once and the resolved nb/ib below pick up the
// calibrated values automatically; without a calibration they resolve to
// the historical 64/16.
//
//   ./tall_skinny [n] [max_ratio]
//
// Exits 1 if the 1e300-scaled solve is not flagged scaled or strays more
// than 1e-12 relative from the unscaled solve.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/timer.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "common/flops.hpp"
#include "cp/crossover.hpp"
#include "kernels/qr_kernels.hpp"
#include "rsvd/tsqr.hpp"
#include "tile/matrix_gen.hpp"
#include "tune/tune.hpp"

int main(int argc, char** argv) {
  using namespace tbsvd;
  const int n = argc > 1 ? std::atoi(argv[1]) : 192;
  const int max_ratio = argc > 2 ? std::atoi(argv[2]) : 12;
  const int hw = host_cores();
  const int nb = tune::resolved_nb(0, sizeof(double), 64);
  const int ib = std::min(tune::resolved_ib(0, sizeof(double), 16), nb);

  std::printf("n = %d fixed, m = ratio * n, nb = %d, ib = %d (%s), "
              "%d threads\n",
              n, nb, ib, tune::active() ? "calibrated" : "defaults", hw);
  std::printf("%8s %14s %14s %10s\n", "m/n", "BiDiag GF/s", "R-BiDiag GF/s",
              "winner");
  for (int ratio = 1; ratio <= max_ratio; ratio *= 2) {
    const int m = ratio * n;
    double gf[2];
    for (int a = 0; a < 2; ++a) {
      // Padded tiling: the tuned nb need not divide the problem size.
      TileMatrix A =
          tile_from_dense_padded(generate_random(m, n, 5 + ratio).cview(), nb);
      Ge2bndOptions opt;
      opt.qr_tree = opt.lq_tree = TreeKind::Greedy;
      opt.alg = (a == 0) ? BidiagAlg::Bidiag : BidiagAlg::RBidiag;
      opt.ib = ib;
      opt.nthreads = hw;
      ExecResult r = ge2bnd(A, opt);
      gf[a] = flops_ge2bnd(m, n) / r.seconds / 1e9;
    }
    std::printf("%8d %14.2f %14.2f %10s\n", ratio, gf[0], gf[1],
                gf[1] > gf[0] ? "R-BiDiag" : "BiDiag");
  }

  // TSQR on the tallest geometry: one explicit R factorization per
  // reduction tree, all through the same work-stealing executor.
  {
    const int m = max_ratio * n;
    const Matrix A = generate_random(m, n, 7);
    std::printf("\nTSQR %d x %d:\n", m, n);
    for (TreeKind tk : {TreeKind::FlatTT, TreeKind::Greedy, TreeKind::Auto}) {
      TsqrOptions topt;
      topt.tree = tk;
      topt.nthreads = hw;
      WallTimer t;
      const TsqrFactors f = tsqr(A.cview(), topt);
      const double sec = t.seconds();
      std::printf("  %-7s %8.2f GF/s  (%zu tasks)\n", tree_name(tk),
                  kernels::flops_geqrt(m, n) / sec / 1e9, f.ntasks);
    }
  }

  // Full pipeline on a badly scaled tall-skinny matrix: entries near
  // 1e300 would overflow reflector norms without the driver's safe
  // pre-scaling (docs/ROBUSTNESS.md). SvdInfo reports the scaling; the
  // spectrum matches the well-scaled solve to full relative accuracy.
  bool scaled_ok = false;
  {
    const int m = 8 * n;
    Matrix A = generate_random(m, n, 99);
    GesvdOptions sopt;
    sopt.nb = nb;
    sopt.ge2bnd.ib = ib;
    sopt.ge2bnd.nthreads = hw;
    const auto ref = gesvd_values(A.cview(), sopt);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) A(i, j) *= 1e300;
    SvdInfo info;
    const auto sv = gesvd_values(A.cview(), sopt, nullptr, &info);
    double maxrel = 0.0;
    bool within = true;  // a NaN deviation fails the comparison
    for (std::size_t i = 0; i < sv.size(); ++i) {
      const double dev = std::fabs(sv[i] / 1e300 - ref[i]) / ref[i];
      maxrel = std::max(maxrel, dev);
      within = within && dev <= 1e-12;
    }
    std::printf("\n1e300-scaled %d x %d solve: status=%s scaled=%d "
                "(amax %.2e -> %.2e), max rel dev vs unscaled %.2e\n",
                m, n, status_name(info.status), info.scaled ? 1 : 0,
                info.scale_from, info.scale_to, maxrel);
    scaled_ok = info.scaled && within;
  }

  const int q = std::max(1, n / nb);
  const auto exact = find_crossover(TreeKind::Greedy, q);
  const auto est = find_crossover_estimate(TreeKind::Greedy, q);
  std::printf("\ncritical-path crossover at q = %d tiles:\n", q);
  std::printf("  exact DAG: p* = %d  (delta_s = %.2f)\n", exact.p_switch,
              exact.delta_s);
  std::printf("  paper-style estimate: p* = %d  (delta_s = %.2f; paper "
              "reports 5..8)\n",
              est.p_switch, est.delta_s);
  return scaled_ok ? 0 : 1;
}
