// First-run autotuner CLI: measures the six tile-kernel families plus GEMM
// across an nb x ib x dtype grid on this machine, picks the best (nb, ib)
// per precision by end-to-end GE2VAL rate, and persists the result as a
// versioned JSON calibration file. Point TBSVD_TUNE_FILE at the output (or
// write to the default ~/.cache/tbsvd/tune.json) and the library picks it
// up on first use: tuned nb/ib defaults, measured CP-first scheduler
// priorities and the tuned dist_sim tile.
//
// Usage: tbsvd_tune [--smoke] [--out PATH] [--reps N] [--e2e N]
//                   [--nbs a,b,...] [--ibs a,b,...]
//                   [--f32-only | --f64-only]
//   --smoke    tiny grid, single rep (the CI shape)
//   --out      output path (default: $TBSVD_TUNE_FILE, else the cache path)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tune/tune.hpp"

namespace {

using namespace tbsvd;

bool parse_int_list(const char* s, std::vector<int>& out) {
  out.clear();
  while (*s != '\0') {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || v < 1) return false;
    out.push_back(static_cast<int>(v));
    s = (*end == ',') ? end + 1 : end;
    if (end != s && *end != '\0') return false;
  }
  return !out.empty();
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--out PATH] [--reps N] [--e2e N]\n"
               "       [--nbs a,b,...] [--ibs a,b,...]\n"
               "       [--f32-only | --f64-only]\n",
               prog);
  return 2;
}

void print_precision(const tune::PrecisionCalib& p) {
  std::printf("  %s: nb=%d ib=%d  e2e=%.2f GFlop/s  gemm=%.2f GFlop/s\n",
              p.dtype.c_str(), p.nb, p.ib, p.e2e_gflops, p.gemm_gflops);
  std::printf("      kernel seconds: GEQRT=%.3e UNMQR=%.3e TSQRT=%.3e "
              "TSMQR=%.3e TTQRT=%.3e TTMQR=%.3e\n",
              p.kernel_seconds.at(Op::GEQRT), p.kernel_seconds.at(Op::UNMQR),
              p.kernel_seconds.at(Op::TSQRT), p.kernel_seconds.at(Op::TSMQR),
              p.kernel_seconds.at(Op::TTQRT), p.kernel_seconds.at(Op::TTMQR));
}

}  // namespace

int main(int argc, char** argv) {
  tune::TuneOptions opts;
  std::string out_path = tune::default_tune_path();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opts.reps = std::atoi(argv[++i]);
      if (opts.reps < 1) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--e2e") == 0 && i + 1 < argc) {
      opts.e2e_target = std::atoi(argv[++i]);
      if (opts.e2e_target < 8) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--nbs") == 0 && i + 1 < argc) {
      if (!parse_int_list(argv[++i], opts.nbs)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--ibs") == 0 && i + 1 < argc) {
      if (!parse_int_list(argv[++i], opts.ibs)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--f32-only") == 0) {
      opts.tune_f64 = false;
    } else if (std::strcmp(argv[i], "--f64-only") == 0) {
      opts.tune_f32 = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "tbsvd_tune: no output path (set --out, TBSVD_TUNE_FILE, "
                 "or HOME)\n");
    return 1;
  }

  std::printf("tbsvd_tune: calibrating on host %s%s ...\n",
              tune::host_fingerprint().c_str(),
              opts.smoke ? " (smoke grid)" : "");
  try {
    const tune::Calibration cal = tune::autotune(opts);
    for (const tune::PrecisionCalib& p : cal.precisions) print_precision(p);
    tune::save_calibration(out_path, cal);
    std::printf("wrote calibration to %s\n", out_path.c_str());
    std::printf("activate with: export TBSVD_TUNE_FILE=%s\n",
                out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbsvd_tune: %s\n", e.what());
    return 1;
  }
  return 0;
}
