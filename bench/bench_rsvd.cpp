// TSQR + randomized truncated SVD (src/rsvd) across tall-skinny aspect
// ratios. Two series:
//
//   tsqr_<tree>     — explicit-R TSQR rate (GEQRT flop model) per
//                     reduction tree, the range finder's inner engine;
//   rsvd_trunc_kK / rsvd_full
//                   — gesvd_truncated at k = n/8 against the full
//                     gesvd_values driver on the same matrix, both
//                     normalized by the GE2BND flop model so the rate
//                     ratio is the wall-clock speedup the truncated
//                     path delivers (the ISSUE-10 acceptance gate is
//                     >= 3x at 4096 x 256).
//
// Every point lands in the JSON artifact (default BENCH_rsvd.json, same
// Record schema as the other benches) for cross-PR tracking via
// bench/history/.
//
// Usage: bench_rsvd [--smoke] [--out PATH]
#include <algorithm>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"
#include "kernels/qr_kernels.hpp"
#include "rsvd/rsvd.hpp"
#include "rsvd/tsqr.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

std::vector<Record> g_records;

Record tsqr_record(const std::string& name, int nb, int ib, int m, int n,
                   double seconds) {
  Record r;
  r.name = name;
  r.nb = nb;
  r.ib = ib;
  r.m = m;
  r.n = n;
  r.seconds = seconds;
  r.gflops = kernels::flops_geqrt(m, n) / seconds / 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  bool smoke = false;
  const char* out = "BENCH_rsvd.json";
  if (!parse_bench_args(argc, argv, smoke, out)) return 2;

  const int hw = host_cores();
  const int reps = smoke ? 1 : 3;

  struct Shape {
    int m, n;
  };
  std::vector<Shape> shapes = {{1024, 256}, {2048, 256}, {4096, 256}};
  if (smoke) shapes = {{512, 64}};
  if (full_mode()) shapes = {{1024, 256}, {2048, 256}, {4096, 256},
                             {8192, 256}};

  // ---- TSQR rate per reduction tree ------------------------------------
  print_header("TSQR explicit-R rate, GFlop/s (GEQRT model), P=" +
                   std::to_string(hw),
               {"M", "N", "FlatTT", "Greedy", "Auto"});
  for (const Shape& s : shapes) {
    const Matrix A = generate_random(s.m, s.n, 11);
    double gf[3];
    int col = 0;
    int nb = 0, ib = 0;
    for (TreeKind tk : {TreeKind::FlatTT, TreeKind::Greedy, TreeKind::Auto}) {
      TsqrOptions o;
      o.tree = tk;
      o.nthreads = hw;
      const double sec = time_best(reps, [&] {
        const TsqrFactors f = tsqr(A.cview(), o);
        benchmark_keep(f.ntasks);
        nb = f.A.nb();
        ib = f.ib;
      });
      g_records.push_back(tsqr_record(
          std::string("tsqr_") + tree_name(tk), nb, ib, s.m, s.n, sec));
      gf[col++] = g_records.back().gflops;
    }
    std::printf("%14d%14d%14.2f%14.2f%14.2f\n", s.m, s.n, gf[0], gf[1],
                gf[2]);
  }

  // ---- Truncated vs full driver ----------------------------------------
  print_header("gesvd_truncated (k = n/8) vs gesvd_values, GE2BND-"
               "normalized GFlop/s",
               {"M", "N", "k", "trunc", "full", "speedup"});
  for (const Shape& s : shapes) {
    const int k = std::max(1, s.n / 8);
    const Matrix A = generate_random(s.m, s.n, 23);

    GesvdTruncatedOptions topt;
    topt.nthreads = hw;
    const double tsec = time_best(reps, [&] {
      const TruncatedSvd r = gesvd_truncated(A.cview(), k, topt);
      benchmark_keep(r.values);
    });

    GesvdOptions fopt;
    fopt.ge2bnd.alg = BidiagAlg::Auto;
    fopt.ge2bnd.nthreads = hw;
    const double fsec = time_best(reps, [&] {
      const auto sv = gesvd_values(A.cview(), fopt);
      benchmark_keep(sv);
    });

    Record tr = e2e_record("rsvd_trunc_k" + std::to_string(k), 0, 0, s.m,
                           s.n, tsec);
    Record fr = e2e_record("rsvd_full", 0, 0, s.m, s.n, fsec);
    g_records.push_back(tr);
    g_records.push_back(fr);
    std::printf("%14d%14d%14d%14.2f%14.2f%13.1fx\n", s.m, s.n, k, tr.gflops,
                fr.gflops, fsec / tsec);
  }

  return write_json(out, g_records) ? 0 : 1;
}
