// Ablation of the tile size nb and inner blocking ib (Section VI.B): a
// large nb speeds up GE2BND (better kernel efficiency) but inflates the
// memory-bound BND2BD stage (flops ~ 6 n^2 nb); a small nb does the
// opposite. The paper tuned nb = 160, ib = 32 at m = n = 20000..30000.
// We report the per-stage split of GE2VAL across (nb, ib) on a scaled
// problem, plus measured kernel efficiency per nb.
#include <algorithm>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"

namespace {
using namespace tbsvd;
using namespace tbsvd::bench;
}  // namespace

int main() {
  using namespace tbsvd;
  using namespace tbsvd::bench;

  const int hw = host_cores();
  const int m = full_mode() ? 1536 : 768;
  const int n = m;

  print_header("GE2VAL stage split vs (nb, ib), M=N=" + std::to_string(m),
               {"nb", "ib", "ge2bnd(s)", "bnd2bd(s)", "bd2val(s)",
                "total(s)"});
  struct Cfg {
    int nb, ib;
  };
  const Cfg cfgs[] = {{32, 8},  {32, 32}, {64, 8},
                      {64, 16}, {96, 16}, {128, 32}};
  Matrix A = generate_random(m, n, 99);
  for (const auto& c : cfgs) {
    GesvdOptions o;
    o.nb = c.nb;
    o.ge2bnd.ib = c.ib;
    o.ge2bnd.nthreads = hw;
    GesvdTimings t;
    auto sv = gesvd_values(A.cview(), o, &t);
    benchmark_keep(sv);
    std::printf("%14d%14d%14.3f%14.3f%14.3f%14.3f\n", c.nb, c.ib,
                t.ge2bnd_seconds, t.bnd2bd_seconds, t.bd2val_seconds,
                t.total());
  }

  print_header("Kernel efficiency vs nb (GEQRT GFlop/s, ib=nb/4)",
               {"nb", "GFlop/s"});
  for (int nb : {32, 64, 96, 128, 160, 224}) {
    auto ktab = calibrate_kernels(nb, std::max(4, nb / 4));
    std::printf("%14d%14.2f\n", nb,
                kernels::flops_geqrt(nb, nb) / ktab.at(Op::GEQRT) / 1e9);
  }
  return 0;
}
