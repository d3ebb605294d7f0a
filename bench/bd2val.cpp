// BD2VAL alone: seconds per bd2val call on the bidiagonal that gebrd makes
// from a planted geometric input (cond 1e6, the spectrum perfbench plants),
// single thread, best of N warm calls. Shapes: the two batched member
// shapes (32 x 16 and 128 x 96) and square n = 16, 96, 384, 1024.
//
// Records go to BENCH_bd2val.json (Record schema plus the input extents
// m, n) for bench/history/.
//
// Usage: bd2val [--smoke] [--out PATH] [--dtype f32|f64]
#include <algorithm>
#include <utility>

#include "band/bd2val.hpp"
#include "baseline/gebrd.hpp"
#include "bench_common.hpp"

namespace {

using namespace tbsvd;
using namespace tbsvd::bench;

template <class T>
double best_seconds(int m, int n, int reps) {
  GenOptions g;
  g.profile = SvProfile::Geometric;
  g.cond = 1e6;
  g.seed = 11;
  std::vector<double> planted;
  const Matrix Ad = generate_latms(m, n, g, planted);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  std::vector<T> d, e;
  gebrd<T>(A.view(), d, e);
  return time_best(reps, [&] {
    const std::vector<T> sv = bd2val<T>(d, e);
    benchmark_keep(sv);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out = "BENCH_bd2val.json";
  DType dtype = DType::F64;
  if (!parse_bench_args(argc, argv, smoke, out, &dtype)) return 2;
  std::vector<std::pair<int, int>> shapes = {{32, 16},   {128, 96}, {16, 16},
                                             {96, 96},   {384, 384},
                                             {1024, 1024}};
  if (smoke) shapes.resize(2);
  std::vector<Record> records;
  print_header(std::string("BD2VAL on gebrd bidiagonals [") +
                   dtype_name(dtype) + ", 1 thread, best of N]",
               {"m", "n", "seconds"});
  for (const auto& [m, n] : shapes) {
    const int reps = smoke ? 3 : std::max(15, 20000 / (n + 50));
    Record r;
    r.name = std::string("bd2val") + dtype_suffix(dtype);
    r.m = m;
    r.n = n;
    r.seconds = dtype == DType::F32 ? best_seconds<float>(m, n, reps)
                                    : best_seconds<double>(m, n, reps);
    std::printf("%14d%14d%14.3e\n", m, n, r.seconds);
    records.push_back(r);
  }
  return write_json(out, records) ? 0 : 1;
}
