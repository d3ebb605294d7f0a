// Table I reproduction: costs of the six QR tile kernels (the LQ mirrors
// share them — verified by test_lq_kernels) in units of nb^3/3 flops. The
// paper's weights are
//   GEQRT 4, UNMQR 6, TSQRT 6, TSMQR 12, TTQRT 2, TTMQR 6.
// For each (nb, ib) configuration we print the measured time normalized so
// that GEQRT == 4, the per-kernel seconds, and the achieved GFlop/s at the
// Table-I flop counts, plus the same comparison for the level-2 reference
// TT kernels (the pre-BLAS3 formulation) so the gemm_trap speedup is
// re-measured on the current machine with every run.
//
// Results are appended to BENCH_kernels.json (same Record schema as
// BENCH_gemm.json, with the normalized weights attached) so kernel-weight
// drift is diffable across PRs; see docs/EXPERIMENTS.md.
//
// Besides the TT comparison, the recursive-BLAS3-panel kernels
// (GEQRT/GELQT/TSQRT/TSLQT) are timed head-to-head against their
// level-2-panel *_ref implementations, so the panel speedup is re-measured
// on the current machine with every run (acceptance floor: GEQRT >= 1.8x
// at nb = 160, ib = 32). The *_ref kernels are test oracles (tests/oracle,
// linked as the tbsvd_oracle target), not library code.
//
// Usage: table1_kernels [--smoke] [--out PATH]
#include <cstring>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "oracle/oracle.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

std::vector<Record> g_records;

void report_table(int nb, int ib, int reps) {
  auto t = calibrate_kernels(nb, ib, reps);
  const double unit = t[Op::GEQRT] / 4.0;  // normalize GEQRT to weight 4
  print_header("Table I — kernel weights (nb=" + std::to_string(nb) +
                   ", ib=" + std::to_string(ib) + ")",
               {"kernel", "paper", "measured", "sec", "GFlop/s"});
  const Op ops[] = {Op::GEQRT, Op::UNMQR, Op::TSQRT,
                    Op::TSMQR, Op::TTQRT, Op::TTMQR};
  for (Op op : ops) {
    const double flops = op_weight_units(op) * kernel_unit_flops(nb);
    std::printf("%14s%14.0f%14.2f%14.6f%14.2f\n", op_name(op),
                op_weight_units(op), t[op] / unit, t[op],
                flops / t[op] / 1e9);
    Record r;
    r.name = op_name(op);
    r.nb = nb;
    r.ib = ib;
    r.seconds = t[op];
    r.gflops = flops / t[op] / 1e9;
    r.weight_measured = t[op] / unit;
    r.weight_paper = op_weight_units(op);
    g_records.push_back(r);
  }
}

// Blocked vs reference TT kernels, timed head to head in this process so
// the speedup column of docs/PERF.md is reproducible on any machine.
void report_tt_speedup(int nb, int ib, int reps) {
  using namespace tbsvd::kernels;
  Matrix u1 = generate_random(nb, nb, 21), u2 = generate_random(nb, nb, 22);
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) {
      u1(i, j) = 0.0;
      u2(i, j) = 0.0;
    }
  Matrix t(ib, nb), u1c = u1, u2c = u2;
  Matrix c1 = generate_random(nb, nb, 23), c2 = generate_random(nb, nb, 24);

  auto factor_time = [&](auto&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Matrix x1 = u1, x2 = u2;
      WallTimer w;
      fn(x1, x2);
      best = std::min(best, w.seconds());
    }
    return best;
  };
  const double tq_ref = factor_time([&](Matrix& x1, Matrix& x2) {
    ttqrt_ref(x1.view(), x2.view(), t.view(), ib);
  });
  const double tq_new = factor_time([&](Matrix& x1, Matrix& x2) {
    ttqrt(x1.view(), x2.view(), t.view(), ib);
  });
  // Factor the pristine copies so the update kernels get a valid (V2, T).
  ttqrt(u1c.view(), u2c.view(), t.view(), ib);
  const double tm_ref = time_best(reps, [&] {
    ttmqr_ref(Trans::Yes, c1.view(), c2.view(), u2c.cview(), t.cview(), ib);
    benchmark_keep(c1.data());
  });
  const double tm_new = time_best(reps, [&] {
    ttmqr(Trans::Yes, c1.view(), c2.view(), u2c.cview(), t.cview(), ib);
    benchmark_keep(c1.data());
  });

  print_header("TT kernels, level-2 reference vs blocked (nb=" +
                   std::to_string(nb) + ", ib=" + std::to_string(ib) + ")",
               {"kernel", "ref sec", "blocked sec", "speedup"});
  std::printf("%14s%14.6f%14.6f%13.2fx\n", "TTQRT", tq_ref, tq_new,
              tq_ref / tq_new);
  std::printf("%14s%14.6f%14.6f%13.2fx\n", "TTMQR", tm_ref, tm_new,
              tm_ref / tm_new);
  Record rq;
  rq.name = "TTQRT_ref";
  rq.nb = nb;
  rq.ib = ib;
  rq.seconds = tq_ref;
  rq.gflops = kernels::flops_ttqrt(nb) / tq_ref / 1e9;
  g_records.push_back(rq);
  Record rm;
  rm.name = "TTMQR_ref";
  rm.nb = nb;
  rm.ib = ib;
  rm.seconds = tm_ref;
  rm.gflops = kernels::flops_ttmqr(nb, nb) / tm_ref / 1e9;
  g_records.push_back(rm);
}

// Recursive-BLAS3-panel kernels vs the level-2-panel reference oracles,
// timed head to head in this process (same operands, best-of-N).
void report_panel_speedup(int nb, int ib, int reps) {
  using namespace tbsvd::kernels;
  Matrix t(ib, nb);

  auto factor_time = [&](const Matrix& x1, auto&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Matrix a = x1;
      WallTimer w;
      fn(a);
      best = std::min(best, w.seconds());
    }
    return best;
  };
  auto pair_time = [&](const Matrix& x1, const Matrix& x2, auto&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Matrix a = x1, b = x2;
      WallTimer w;
      fn(a, b);
      best = std::min(best, w.seconds());
    }
    return best;
  };

  struct Row {
    const char* name;
    double ref, rec, flops;
  };
  std::vector<Row> rows;

  Matrix ge = generate_random(nb, nb, 31);
  rows.push_back({"GEQRT",
                  factor_time(ge, [&](Matrix& a) {
                    geqrt_ref(a.view(), t.view(), ib);
                  }),
                  factor_time(ge, [&](Matrix& a) {
                    geqrt(a.view(), t.view(), ib);
                  }),
                  flops_geqrt(nb, nb)});
  rows.push_back({"GELQT",
                  factor_time(ge, [&](Matrix& a) {
                    gelqt_ref(a.view(), t.view(), ib);
                  }),
                  factor_time(ge, [&](Matrix& a) {
                    gelqt(a.view(), t.view(), ib);
                  }),
                  flops_geqrt(nb, nb)});

  Matrix r1 = generate_random(nb, nb, 32), v2 = generate_random(nb, nb, 33);
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) r1(i, j) = 0.0;
  rows.push_back({"TSQRT",
                  pair_time(r1, v2, [&](Matrix& a, Matrix& b) {
                    tsqrt_ref(a.view(), b.view(), t.view(), ib);
                  }),
                  pair_time(r1, v2, [&](Matrix& a, Matrix& b) {
                    tsqrt(a.view(), b.view(), t.view(), ib);
                  }),
                  flops_tsqrt(nb, nb)});
  Matrix l1(nb, nb), v2l(nb, nb);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i) {
      l1(i, j) = (i >= j) ? r1(j, i) : 0.0;
      v2l(i, j) = v2(j, i);
    }
  rows.push_back({"TSLQT",
                  pair_time(l1, v2l, [&](Matrix& a, Matrix& b) {
                    tslqt_ref(a.view(), b.view(), t.view(), ib);
                  }),
                  pair_time(l1, v2l, [&](Matrix& a, Matrix& b) {
                    tslqt(a.view(), b.view(), t.view(), ib);
                  }),
                  flops_tsqrt(nb, nb)});

  print_header("Panel kernels, level-2 ref vs recursive BLAS3 (nb=" +
                   std::to_string(nb) + ", ib=" + std::to_string(ib) + ")",
               {"kernel", "ref sec", "rec sec", "speedup"});
  for (const Row& row : rows) {
    std::printf("%14s%14.6f%14.6f%13.2fx\n", row.name, row.ref, row.rec,
                row.ref / row.rec);
    // Both sides of the head-to-head go into the artifact: _ref is the
    // frozen level-2-panel kernel, _rec the recursive path (GELQT/TSLQT
    // have no row in the Table-I section, so this is their only record).
    for (const bool is_ref : {true, false}) {
      Record r;
      r.name = std::string(row.name) + (is_ref ? "_ref" : "_rec");
      r.nb = nb;
      r.ib = ib;
      r.seconds = is_ref ? row.ref : row.rec;
      r.gflops = row.flops / r.seconds / 1e9;
      g_records.push_back(r);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_kernels.json";
  if (!parse_bench_args(argc, argv, smoke, out)) return 2;
  if (smoke) {
    report_table(160, 32, 2);
    report_tt_speedup(160, 32, 2);
    report_panel_speedup(160, 32, 3);
  } else {
    report_table(160, 32, 5);
    report_table(128, 16, 5);
    report_table(64, 8, 5);
    report_tt_speedup(160, 32, 8);
    report_panel_speedup(160, 32, 10);
    report_panel_speedup(128, 16, 10);
  }
  return write_json(out, g_records) ? 0 : 1;
}
