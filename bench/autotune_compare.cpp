// Autotune validation bench: end-to-end gesvd_values at the fig2 shapes,
// tuned (nb, ib) from a calibration vs the paper's hand-tuned nb=160 /
// ib=32, for f32 and f64. The acceptance bar for the autotuner is tuned >=
// hand-tuned within noise on every shape — a calibration that loses to the
// 2017 Haswell constants on this machine is a regression and shows up here
// as ratio < 1.
//
// With --tune-file PATH the tuned configuration comes from a persisted
// tbsvd_tune file; without it the grid search runs in process (the --smoke
// grid when --smoke is given).
//
// Usage: autotune_compare [--smoke] [--out PATH] [--tune-file PATH]
#include <algorithm>

#include "bench_common.hpp"
#include "common/flops.hpp"
#include "core/svd.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

std::vector<Record> g_records;

template <class T>
double run_case(int m, int n, int nb, int ib, int nthreads, int reps,
                const std::string& series) {
  Matrix Ad = generate_random(m, n, 7);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  GesvdOptions o;
  o.nb = nb;
  o.ge2bnd.ib = ib;
  o.ge2bnd.alg = m > n ? BidiagAlg::Auto : BidiagAlg::Bidiag;
  o.ge2bnd.nthreads = nthreads;
  const double secs = time_best(reps, [&] {
    auto sv = gesvd_values(A.cview(), o);
    benchmark_keep(sv);
  });
  g_records.push_back(e2e_record(series, nb, ib, m, n, secs));
  return g_records.back().gflops;
}

template <class T>
void compare_precision(const tune::PrecisionCalib& pc, bool smoke) {
  const char* dt = sizeof(T) == sizeof(float) ? "f32" : "f64";
  const int hw = host_cores();
  const int reps = smoke ? 1 : 3;
  // fig2 shapes: square (2a/2d) and tall-and-skinny (2b/2e).
  struct Shape {
    int m, n;
  };
  std::vector<Shape> shapes = {{512, 512}, {1024, 256}};
  if (smoke) shapes = {{256, 256}};
  if (full_mode()) shapes = {{512, 512}, {768, 768}, {1024, 256}, {2048, 320}};

  print_header(std::string("autotune vs hand-tuned nb=160/ib=32 [") + dt +
                   ", tuned nb=" + std::to_string(pc.nb) +
                   " ib=" + std::to_string(pc.ib) + "]",
               {"M", "N", "default", "tuned", "ratio"});
  for (const Shape& s : shapes) {
    const double def =
        run_case<T>(s.m, s.n, 160, 32, hw, reps,
                    std::string("autotune_default_") + dt);
    const double tuned =
        run_case<T>(s.m, s.n, pc.nb, pc.ib, hw, reps,
                    std::string("autotune_tuned_") + dt);
    std::printf("%14d%14d%14.2f%14.2f%14.2f\n", s.m, s.n, def, tuned,
                tuned / def);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_autotune.json";
  const char* tune_file = nullptr;
  if (!parse_bench_args(argc, argv, smoke, out, nullptr, nullptr,
                        &tune_file)) {
    return 2;
  }

  tune::Calibration cal;
  if (tune_file != nullptr) {
    load_tune_table(tune_file, cal, DType::F64);
    std::printf("using persisted calibration %s\n", tune_file);
  } else {
    std::printf("no --tune-file: running the grid search in process%s ...\n",
                smoke ? " (smoke grid)" : "");
    tune::TuneOptions to;
    to.smoke = smoke;
    cal = tune::autotune(to);
  }

  if (const tune::PrecisionCalib* p = cal.find("f64")) {
    compare_precision<double>(*p, smoke);
  }
  if (const tune::PrecisionCalib* p = cal.find("f32")) {
    compare_precision<float>(*p, smoke);
  }
  return write_json(out, g_records) ? 0 : 1;
}
