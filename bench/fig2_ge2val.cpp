// Figure 2, bottom row: shared-memory GE2VAL (singular values only)
// GFlop/s against the competitor stand-ins:
//   tbsvd     — this library: GE2BND (Auto tree; R-BIDIAG on TS shapes)
//               + BND2BD + BD2VAL               (paper: DPLASMA)
//   plasma*   — tiled GE2BND with FlatTS tree   (paper: PLASMA)
//   mkl*      — blocked GEBRD, threaded updates (paper: MKL)
//   scalapack*— blocked GEBRD, nb = 48, serial  (paper: ScaLAPACK)
//   elemental*— Chan preQR switch + GEBRD       (paper: Elemental)
// Paper shapes: the tiled two-stage codes dominate; on tall-and-skinny the
// one-stage GEBRD codes flatline while tbsvd/elemental keep scaling.
//
// --dtype selects the working precision: f64 (default) or f32 (every
// driver in float). f32 series carry a _f32 suffix so the history tier
// tracks each precision separately.
//
// Every point lands in the JSON artifact (default BENCH_fig2_ge2val.json,
// Record schema plus problem extents) for cross-PR tracking via
// bench/history/. Tiled points also record their GesvdTimings split
// (ge2bnd_s, bnd2bd_s, bd2val_s).
//
// The tiled columns run at the library's tuned defaults: (nb, ib) = 0
// resolve from the active calibration (TBSVD_TUNE_FILE), else 64 / 32.
// With --tune-file PATH they take (nb, ib) from that persisted tbsvd_tune
// calibration instead; an explicit --nb still wins on the tile size. Sizes
// are rounded to the resolved nb.
//
// Usage: fig2_ge2val [--smoke] [--out PATH] [--dtype f32|f64] [--nb N]
//                    [--tune-file PATH]
#include <algorithm>

#include "baseline/chan.hpp"
#include "baseline/gebrd.hpp"
#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

int g_nb = 0;  // 0: the library's tuned default
int g_ib = 0;
DType g_dtype = DType::F64;

std::vector<Record> g_records;

double record_point(const std::string& name, int m, int n, int nb, int ib,
                    double seconds, const GesvdTimings* t = nullptr) {
  g_records.push_back(e2e_record(name, nb, ib, m, n, seconds));
  if (t != nullptr) {
    g_records.back().ge2bnd_s = t->ge2bnd_seconds;
    g_records.back().bnd2bd_s = t->bnd2bd_seconds;
    g_records.back().bd2val_s = t->bd2val_seconds;
  }
  return g_records.back().gflops;
}

// The (nb, ib) the tiled series run at: explicit values win; the 0
// sentinels take the active calibration's tuned values (else 64 / 32), as
// gesvd_values resolves them. Its cap of nb near n never binds here, since
// every size is rounded to a multiple of nb.
int scalar_bytes() { return g_dtype == DType::F32 ? 4 : 8; }
int tiled_nb() { return tune::resolved_nb(g_nb, scalar_bytes(), 64); }
int tiled_ib() {
  return std::min(tune::resolved_ib(g_ib, scalar_bytes(), 32), tiled_nb());
}

template <class T>
MatrixT<T> input_matrix(int m, int n) {
  Matrix Ad = generate_random(m, n, 7);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  return A;
}

GesvdOptions tiled_opts(int nthreads, TreeKind tree, BidiagAlg alg) {
  GesvdOptions o;
  o.nb = g_nb;
  o.ge2bnd.ib = g_ib;
  o.ge2bnd.qr_tree = o.ge2bnd.lq_tree = tree;
  o.ge2bnd.alg = alg;
  o.ge2bnd.nthreads = nthreads;
  return o;
}

double run_tbsvd(int m, int n, int nthreads, TreeKind tree, BidiagAlg alg,
                 const std::string& series) {
  const GesvdOptions o = tiled_opts(nthreads, tree, alg);
  const int nb = tiled_nb(), ib = tiled_ib();
  GesvdTimings t;
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = gesvd_values(A.cview(), o, &t);
    benchmark_keep(sv);
    return record_point(series, m, n, nb, ib, w.seconds(), &t);
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = gesvd_values(A.cview(), o, &t);
  benchmark_keep(sv);
  return record_point(series, m, n, nb, ib, w.seconds(), &t);
}

double run_gebrd(int m, int n, int nb, int nthreads,
                 const std::string& series) {
  GebrdOptions o;
  o.nb = nb;
  o.nthreads = nthreads;
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = gebrd_singular_values(A.cview(), o);
    benchmark_keep(sv);
    return record_point(series, m, n, nb, 0, w.seconds());
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = gebrd_singular_values(A.cview(), o);
  benchmark_keep(sv);
  return record_point(series, m, n, nb, 0, w.seconds());
}

// Chan's preQR switch + GEBRD, serial at GEBRD's default panel width.
double run_chan(int m, int n, const std::string& series) {
  const int nb = GebrdOptions{}.nb;
  if (g_dtype == DType::F32) {
    MatrixT<float> A = input_matrix<float>(m, n);
    WallTimer w;
    auto sv = chan_singular_values(A.cview());
    benchmark_keep(sv);
    return record_point(series, m, n, nb, 0, w.seconds());
  }
  Matrix A = input_matrix<double>(m, n);
  WallTimer w;
  auto sv = chan_singular_values(A.cview());
  benchmark_keep(sv);
  return record_point(series, m, n, nb, 0, w.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_fig2_ge2val.json";
  const char* tune_file = nullptr;
  int nb_flag = 0;
  if (!parse_bench_args(argc, argv, smoke, out, &g_dtype, &nb_flag,
                        &tune_file)) {
    return 2;
  }
  if (nb_flag > 0) g_nb = nb_flag;
  tune::Calibration cal;
  if (tune_file != nullptr) {
    const tune::PrecisionCalib& pc =
        load_tune_table(tune_file, cal, g_dtype);
    if (nb_flag == 0) {
      g_nb = pc.nb;
      g_ib = pc.ib;
    }
    std::printf("using persisted calibration %s (nb=%d, ib=%d)\n", tune_file,
                g_nb, g_ib);
  }
  const std::string dsuf = dtype_suffix(g_dtype);

  const int hw = host_cores();

  const int nb = tiled_nb();
  print_header(std::string("Fig.2d GE2VAL square, GFlop/s [") +
                   dtype_name(g_dtype) + ", nb=" + std::to_string(nb) + "]",
               {"M=N", "tbsvd", "plasma*", "mkl*", "scalapack*",
                "elemental*"});
  std::vector<int> sizes = {256, 512, 768};
  if (smoke) sizes = {256};
  if (full_mode()) sizes = {256, 512, 768, 1024, 1536};
  for (int& s : sizes) s = std::max(1, s / nb) * nb;
  for (int n : sizes) {
    std::printf(
        "%14d%14.2f%14.2f%14.2f%14.2f%14.2f\n", n,
        run_tbsvd(n, n, hw, TreeKind::Auto, BidiagAlg::Bidiag,
                  "fig2d_tbsvd" + dsuf),
        run_tbsvd(n, n, hw, TreeKind::FlatTS, BidiagAlg::Bidiag,
                  "fig2d_plasma" + dsuf),
        run_gebrd(n, n, 32, hw, "fig2d_mkl" + dsuf),
        run_gebrd(n, n, 48, 1, "fig2d_scalapack" + dsuf),
        run_chan(n, n, "fig2d_elemental" + dsuf));
  }

  for (int nfix : smoke ? std::vector<int>{128} : std::vector<int>{128, 320}) {
    nfix = std::max(1, nfix / nb) * nb;
    print_header("Fig.2e/f GE2VAL tall-skinny N=" + std::to_string(nfix) +
                     ", GFlop/s [" + dtype_name(g_dtype) + "]",
                 {"M", "tbsvd", "plasma*", "mkl*", "scalapack*",
                  "elemental*"});
    std::vector<int> ms = {512, 1024, 2048};
    if (smoke) ms = {512};
    if (full_mode()) ms = {512, 1024, 2048, 4096, 8192};
    for (int& m : ms) m = std::max(2 * nfix / nb, m / nb) * nb;
    for (int m : ms) {
      std::printf(
          "%14d%14.2f%14.2f%14.2f%14.2f%14.2f\n", m,
          run_tbsvd(m, nfix, hw, TreeKind::Auto, BidiagAlg::Auto,
                    "fig2ef_tbsvd" + dsuf),
          run_tbsvd(m, nfix, hw, TreeKind::FlatTS, BidiagAlg::Bidiag,
                    "fig2ef_plasma" + dsuf),
          run_gebrd(m, nfix, 32, hw, "fig2ef_mkl" + dsuf),
          run_gebrd(m, nfix, 48, 1, "fig2ef_scalapack" + dsuf),
          run_chan(m, nfix, "fig2ef_elemental" + dsuf));
    }
  }
  return write_json(out, g_records) ? 0 : 1;
}
