#include "core/svd.hpp"

#include <algorithm>
#include <limits>

#include "band/band_matrix.hpp"
#include "band/bnd2bd.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

// Tile size for a dense n-column input: explicit opts.nb wins; the 0
// sentinel takes the calibration's tuned nb (else the historical 64),
// capped near n so a large tuned tile never makes a small problem pad up
// to a mostly-empty tile grid.
template <class T>
int resolve_dense_nb(int requested, int n) {
  const int nb = tune::resolved_nb(requested, static_cast<int>(sizeof(T)),
                                   /*fallback=*/64);
  if (requested > 0) return nb;
  return std::max(1, std::min(nb, std::max(64, n)));
}

}  // namespace

template <class T>
std::vector<double> gesvd_values(TileMatrixT<T>& A, const GesvdOptions& opts,
                                 GesvdTimings* timings, SvdInfo* info) {
  TBSVD_CHECK(opts.nb >= 0, "gesvd_values: tile size nb must be >= 0");
  SvdInfo local_info;
  SvdInfo& si = (info != nullptr) ? *info : local_info;
  si = SvdInfo{};

  // Hazard scan + safe pre-scaling of the tiles in place (padding tiles
  // are zero, so they never affect amax); unscale the spectrum on exit.
  std::vector<MatrixViewT<T>> tiles;
  tiles.reserve(static_cast<std::size_t>(A.mt()) * A.nt());
  for (int j = 0; j < A.nt(); ++j) {
    for (int i = 0; i < A.mt(); ++i) tiles.push_back(A.tile(i, j));
  }
  const ScaledSolve<T> guard("gesvd_values", tiles);
  if (TBSVD_FAULT_FIRE("core.svd.poison_tile")) {
    A.tile(0, 0)(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }

  WallTimer timer;
  ExecResult r = ge2bnd<T>(A, opts.ge2bnd);
  const double t1 = timer.seconds();

  BandMatrixT<T> band = band_from_tiles<T>(A);
  BidiagonalT<T> bd = bnd2bd<T>(band);
  const double t2 = timer.seconds();

  Bd2valInfo bi;
  std::vector<T> svt = bd2val<T>(bd, opts.bd2val, &bi);
  const double t3 = timer.seconds();

  si.qr_iterations = bi.qr_iterations;
  si.bisection_fallback = bi.bisection_fallback;
  si.status = bi.status;
  std::vector<double> sv(svt.begin(), svt.end());
  guard.unscale(sv, &si);

  if (timings != nullptr) {
    timings->ge2bnd_seconds = t1;
    timings->bnd2bd_seconds = t2 - t1;
    timings->bd2val_seconds = t3 - t2;
    timings->ge2bnd_tasks = r.ntasks;
  }
  return sv;
}

template <class T>
std::vector<double> gesvd_values(ConstMatrixViewT<T> A,
                                 const GesvdOptions& opts,
                                 GesvdTimings* timings, SvdInfo* info) {
  TBSVD_CHECK(A.m >= A.n, "gesvd_values requires m >= n (transpose first)");
  TBSVD_CHECK(A.n == 0 || A.a != nullptr, "gesvd_values: null input data");
  TBSVD_CHECK(opts.nb >= 0, "gesvd_values: tile size nb must be >= 0");
  if (info != nullptr) *info = SvdInfo{};
  if (A.n == 0) return {};
  const int nb = resolve_dense_nb<T>(opts.nb, A.n);
  TileMatrixT<T> tiled = tile_from_dense_padded<T>(A, nb);
  std::vector<double> sv = gesvd_values<T>(tiled, opts, timings, info);
  // Padding contributed exactly (padded_n - n) zero singular values at the
  // tail of the sorted spectrum; keep the leading n.
  sv.resize(A.n);
  return sv;
}

#define TBSVD_INSTANTIATE_GESVD(T)                                        \
  template std::vector<double> gesvd_values<T>(                           \
      TileMatrixT<T>&, const GesvdOptions&, GesvdTimings*, SvdInfo*);     \
  template std::vector<double> gesvd_values<T>(                           \
      ConstMatrixViewT<T>, const GesvdOptions&, GesvdTimings*, SvdInfo*);

TBSVD_INSTANTIATE_GESVD(float)
TBSVD_INSTANTIATE_GESVD(double)

#undef TBSVD_INSTANTIATE_GESVD

}  // namespace tbsvd
