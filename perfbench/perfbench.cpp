// Benchmark harness of the tbsvd library: one process runs one workload in
// one mode and prints a single JSON object on stdout (human notes go to
// stderr). perfbench/run.py builds it, pins the environment and wraps the
// object into the benchmark's result line.
//
// Workloads (all f64, inputs planted from --seed, every driver at 4
// threads, closed loop: one caller, the next call starts when the previous
// one returns):
//   ge2val_tall    gesvd_values, 8192 x 384, geometric spectrum, cond 1e6
//                  (Auto picks R-BIDIAG; tiled GE2BND is the largest stage,
//                  BND2BD the second)
//   rsvd_topk      gesvd_truncated, 8192 x 512, k = 64; 72 values decaying
//                  1 -> 1e-2 over a 1e-6 floor (never calls GE2BND/BND2BD)
//   batched_mixed  batched::svd over 4096 problems: 15 of 16 are 32 x 16
//                  (direct path), 1 of 16 is 128 x 96 (tiled path)
//
// Modes:
//   timed   end-to-end metrics, tracing off. The first driver call of the
//           process is the cold call; kColdChildren more cold calls run
//           in forked children (each a fresh process image with no driver
//           call made yet), and setup_s is their median.
//   traced  per-layer metrics: the drivers are rebuilt from their public
//           stage functions, each stage timed as a span, and the rebuilt
//           spectrum must match the driver's bitwise. --trace-out writes
//           the spans plus every executor task as Chrome trace-event JSON.
//
// Every result is checked against the planted spectrum with an eps-scaled
// tolerance; misses count as failed. Once per run a 1-thread call must
// reproduce the 4-thread result bitwise.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/bd2val.hpp"
#include "band/bnd2bd.hpp"
#include "batched/batched.hpp"
#include "batched/small_svd.hpp"
#include "common/flops.hpp"
#include "common/hazard.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/alg_gen.hpp"
#include "core/ge2bnd.hpp"
#include "core/svd.hpp"
#include "cp/dag_analysis.hpp"
#include "cp/sim_sched.hpp"
#include "lac/blas.hpp"
#include "rsvd/rsvd.hpp"
#include "rsvd/tsqr.hpp"
#include "tile/matrix_gen.hpp"
#include "tile/tile_matrix.hpp"
#include "tune/tune.hpp"

namespace {

using namespace tbsvd;

constexpr int kThreads = 4;
/// A timed run makes at least this many warm calls, so a tail percentile
/// with ten calls beyond it exists even when one call takes about a second.
constexpr int kMinCalls = 20;
/// Forked children that each make one more cold call for setup_s.
constexpr int kColdChildren = 4;
/// The built-in 0-sentinel defaults every run must resolve to.
constexpr int kPinnedNb = 64, kPinnedIb = 32, kPinnedDirectCols = 48;

enum class Kind { Tall, Rsvd, Batched };

struct Planted {
  Matrix A;
  std::vector<double> sv;  ///< planted spectrum, descending
};

struct Input {
  Kind kind = Kind::Tall;
  std::vector<Planted> probs;
  std::vector<ConstMatrixView> views;  ///< batched: one view per problem
  int k = 0;                           ///< rsvd: values requested
};

/// Spectra of one driver call, one entry per problem; ok[i] is the
/// driver's own verdict (report / SvdInfo ok()).
struct CallResult {
  std::vector<std::vector<double>> values;
  std::vector<bool> ok;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool parse_kind(const std::string& s, Kind& k) {
  static const std::map<std::string, Kind> names = {
      {"ge2val_tall", Kind::Tall},
      {"rsvd_topk", Kind::Rsvd},
      {"batched_mixed", Kind::Batched}};
  auto it = names.find(s);
  if (it == names.end()) return false;
  k = it->second;
  return true;
}

Planted geometric(int m, int n, std::uint64_t seed) {
  GenOptions g;
  g.profile = SvProfile::Geometric;
  g.cond = 1e6;
  g.seed = seed;
  Planted p;
  p.A = generate_latms(m, n, g, p.sv);
  return p;
}

/// Builds the workload's inputs; `tiny` shrinks every extent for the
/// self-test while keeping each workload on the same code paths.
Input make_input(Kind kind, std::uint64_t seed, bool tiny) {
  Input in;
  in.kind = kind;
  switch (kind) {
    case Kind::Tall:
      in.probs.push_back(tiny ? geometric(512, 64, mix(seed, 2))
                              : geometric(8192, 384, mix(seed, 2)));
      break;
    case Kind::Rsvd: {
      const int m = tiny ? 512 : 8192, n = tiny ? 64 : 512;
      const int decay = tiny ? 16 : 72;
      in.k = tiny ? 8 : 64;
      Planted p;
      p.sv.assign(n, 1e-6);
      for (int i = 0; i < decay; ++i) {
        p.sv[i] = std::pow(1e-2, static_cast<double>(i) / (decay - 1));
      }
      p.A = generate_matrix_with_sv(m, n, p.sv, mix(seed, 3));
      in.probs.push_back(std::move(p));
      break;
    }
    case Kind::Batched: {
      const int count = tiny ? 64 : 4096;
      for (int i = 0; i < count; ++i) {
        const bool tiled = i % 16 == 15;
        const int m = tiled ? (tiny ? 64 : 128) : 32;
        const int n = tiled ? (tiny ? 56 : 96) : 16;
        in.probs.push_back(geometric(m, n, mix(seed, 1000 + i)));
      }
      for (const Planted& p : in.probs) in.views.push_back(p.A.cview());
      break;
    }
  }
  return in;
}

GesvdOptions ge2val_options(int nthreads) {
  GesvdOptions o;
  o.ge2bnd.alg = BidiagAlg::Auto;
  o.ge2bnd.nthreads = nthreads;
  return o;
}

GesvdTruncatedOptions rsvd_options(int nthreads) {
  GesvdTruncatedOptions o;
  o.nthreads = nthreads;
  return o;
}

CallResult batch_call(const std::vector<ConstMatrixView>& views,
                      int nthreads) {
  batched::BatchOptions o;
  o.nthreads = nthreads;
  batched::SvdBatchResult r = batched::svd<double>(views, o);
  CallResult c;
  c.values = std::move(r.values);
  for (std::size_t i = 0; i < r.reports.size(); ++i) {
    c.ok.push_back(r.reports[i].ok() && r.infos[i].ok());
  }
  return c;
}

/// One driver call of the workload. A throwing call surfaces to the caller.
CallResult solve(const Input& in, int nthreads) {
  CallResult c;
  switch (in.kind) {
    case Kind::Tall: {
      SvdInfo info;
      c.values.push_back(gesvd_values<double>(
          in.probs[0].A.cview(), ge2val_options(nthreads), nullptr, &info));
      c.ok.push_back(info.ok());
      break;
    }
    case Kind::Rsvd: {
      TruncatedSvd r = gesvd_truncated<double>(in.probs[0].A.cview(), in.k,
                                               rsvd_options(nthreads));
      c.values.push_back(std::move(r.values));
      c.ok.push_back(r.info.ok());
      break;
    }
    case Kind::Batched:
      c = batch_call(in.views, nthreads);
      break;
  }
  return c;
}

/// |s_i - planted_i| / planted_0 bound: eps times a multiple of the
/// problem's column count.
double tolerance(const Planted& p) {
  return 16.0 * p.A.cols() * std::numeric_limits<double>::epsilon();
}

/// Misses of one call: a problem misses when the driver flagged it, its
/// spectrum has the wrong length, any value is off the planted one by more
/// than the tolerance, or (with `same`) it differs bitwise from `same`.
/// `relerr` accumulates the max relative error over checked problems.
std::size_t count_misses(const CallResult& r, const Input& in,
                         double& relerr, const CallResult* same = nullptr) {
  std::size_t misses = 0;
  for (std::size_t i = 0; i < in.probs.size(); ++i) {
    const Planted& p = in.probs[i];
    const std::size_t want =
        in.kind == Kind::Rsvd ? static_cast<std::size_t>(in.k) : p.sv.size();
    if (i >= r.values.size() || !r.ok[i] || r.values[i].size() != want) {
      ++misses;
      continue;
    }
    const std::vector<double>& v = r.values[i];
    double err = 0.0;
    for (std::size_t j = 0; j < want; ++j) {
      err = std::max(err, std::fabs(v[j] - p.sv[j]) / p.sv[0]);
    }
    relerr = std::max(relerr, err);
    const bool differs =
        same != nullptr &&
        (i >= same->values.size() || same->values[i].size() != v.size() ||
         std::memcmp(v.data(), same->values[i].data(),
                     v.size() * sizeof(double)) != 0);
    if (!(err <= tolerance(p)) || differs) ++misses;
  }
  return misses;
}

// ---------------------------------------------------------------- stats ---

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// The highest percentile with at least ten of n calls beyond it (the
/// median when there are fewer than 20 calls).
double tail_percentile(std::size_t n) {
  if (n < 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

// ----------------------------------------------------------------- JSON ---

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

/// An insertion-ordered JSON object built from already-encoded values.
struct JsonObject {
  std::vector<std::pair<std::string, std::string>> fields;
  void raw(const std::string& k, const std::string& v) {
    fields.emplace_back(k, v);
  }
  void put(const std::string& k, double v) { raw(k, num(v)); }
  void put(const std::string& k, const std::string& v) { raw(k, quote(v)); }
  void put(const std::string& k, const char* v) { raw(k, quote(v)); }
  void put(const std::string& k, bool v) { raw(k, v ? "true" : "false"); }
  [[nodiscard]] std::string str() const {
    std::string o = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) o += ",";
      o += quote(fields[i].first) + ":" + fields[i].second;
    }
    return o + "}";
  }
};

std::string num_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) o += ",";
    o += num(v[i]);
  }
  return o + "]";
}

/// Metric name -> (value, unit), in insertion order.
struct Metrics {
  JsonObject obj;
  void add(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.put("value", value);
    m.put("unit", unit);
    obj.raw(name, m.str());
  }
};

// ----------------------------------------------------- process helpers ---

/// Resets the kernel's peak-RSS mark so the timed phase's own peak shows,
/// not the input generator's temporaries. Returns false when unsupported.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atol(line + 6);
    }
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One cold driver call in a forked child, which inherits the generated
/// input but no driver state: thread start-up, the lazy calibration lookup
/// and first-touch allocation all happen inside the timed call. Returns
/// the call's seconds, or -1 when it failed. The child is always reaped.
double cold_call_in_child(const Input& in) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      WallTimer t;
      const CallResult r = solve(in, kThreads);
      s = t.seconds();
      double relerr = 0.0;
      if (count_misses(r, in, relerr) != 0) s = -1.0;
    } catch (...) {
      s = -1.0;
    }
    const bool wrote = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(wrote ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  if (read(fds[0], &s, sizeof s) != sizeof s) s = -1.0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) s = -1.0;
  return s;
}

/// The tuning state every run must be in: no calibration loaded, so the
/// built-in 0-sentinel defaults apply. Throws when it is not.
JsonObject pinned_tuning() {
  const tune::TuneLoadInfo& li = tune::active_load_info();
  JsonObject o;
  o.put("nb", static_cast<double>(tune::resolved_nb(0, 8, kPinnedNb)));
  o.put("ib", static_cast<double>(tune::resolved_ib(0, 8, kPinnedIb)));
  o.put("direct_max_cols", static_cast<double>(tune::resolved_direct_max_cols(
                               0, 8, kPinnedDirectCols)));
  o.put("calibration_active", tune::active() != nullptr);
  o.put("load_status", std::string(status_name(li.status)));
  o.put("load_path", li.path);
  o.put("load_message", li.message);
  if (tune::active() != nullptr) {
    throw std::runtime_error("a calibration is active (" + li.path +
                             "); the benchmark runs only on the built-in "
                             "defaults");
  }
  return o;
}

// --------------------------------------------------------------- spans ---

struct Span {
  std::string name;
  double t0 = 0.0, t1 = 0.0;  ///< seconds since the process epoch
  [[nodiscard]] double seconds() const { return t1 - t0; }
};

double now_s() {
  static const double epoch = WallTimer::now();
  return WallTimer::now() - epoch;
}

/// Times fn() as a span named `name` appended to `spans`; returns seconds.
template <class Fn>
double span(std::vector<Span>& spans, const char* name, Fn&& fn) {
  Span s;
  s.name = name;
  s.t0 = now_s();
  fn();
  s.t1 = now_s();
  spans.push_back(s);
  return s.seconds();
}

/// One traced rebuild of a driver call: stage spans, the per-stage sums
/// keyed by span name, and (ge2val) the GE2BND executor trace.
struct TracedRep {
  std::vector<Span> spans;
  std::map<std::string, double> stage_s;
  Trace tasks;
  double run_t0 = 0.0;  ///< executor run start, seconds since the epoch
  double total() const {
    double t = 0.0;
    for (const auto& kv : stage_s) t += kv.second;
    return t;
  }
};

void sum_spans(TracedRep& rep) {
  for (const Span& s : rep.spans) rep.stage_s[s.name] += s.seconds();
}

/// Writes the spans of `rep` (driver track) and its executor tasks (one
/// track per worker, each nested under a copy of the ge2bnd span) as
/// Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.
bool write_chrome_trace(const std::string& path, const TracedRep& rep,
                        const std::string& workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [](double s) { return num(s * 1e6); };
  int workers = 0;
  for (const TraceEvent& e : rep.tasks.events()) {
    workers = std::max(workers, e.worker + 1);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":%s}}",
               quote("perfbench " + workload).c_str());
  std::fprintf(f,
               ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
               "\"thread_name\",\"args\":{\"name\":\"driver\"}}");
  for (int w = 0; w < workers; ++w) {
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"worker %d\"}}",
                 w + 1, w);
  }
  int id = 0;
  for (const Span& s : rep.spans) {
    ++id;
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"stage\","
                 "\"name\":%s,\"ts\":%s,\"dur\":%s,\"args\":{\"span\":%d}}",
                 quote(s.name).c_str(), us(s.t0).c_str(),
                 us(s.seconds()).c_str(), id);
    if (s.name != "core.ge2bnd") continue;
    for (int w = 0; w < workers; ++w) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"stage\","
                   "\"name\":\"core.ge2bnd\",\"ts\":%s,\"dur\":%s,"
                   "\"args\":{\"span\":%d}}",
                   w + 1, us(s.t0).c_str(), us(s.seconds()).c_str(), id);
    }
    for (const TraceEvent& e : rep.tasks.events()) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"task\","
                   "\"name\":%s,\"ts\":%s,\"dur\":%s,\"args\":{\"parent\":%d,"
                   "\"task\":%d}}",
                   e.worker + 1, quote(e.name).c_str(),
                   us(rep.run_t0 + e.t_start).c_str(),
                   us(e.t_end - e.t_start).c_str(), id, e.task_id);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- traced rebuilds ---

bool ok_status(Status s) { return s == Status::Ok || s == Status::Degraded; }

/// gesvd_values rebuilt from its public stages (the driver's own order:
/// tile, hazard scan, GE2BND, band extraction, BND2BD, BD2VAL). The planted
/// inputs have max |a_ij| < 1, so the safe-scaling step is the identity;
/// a scaled input is reported as a rebuild failure.
std::vector<double> rebuild_ge2val(const Matrix& A, int nthreads,
                                   TracedRep& rep, ExecResult& exec,
                                   Bd2valInfo& bi) {
  const int n = A.cols();
  const int nb = std::min(tune::resolved_nb(0, 8, kPinnedNb),
                          std::max(64, n));
  TileMatrix At;
  span(rep.spans, "tile.pack",
       [&] { At = tile_from_dense_padded<double>(A.cview(), nb); });
  ExtremeScan scan;
  span(rep.spans, "common.hazard_scan", [&] {
    for (int j = 0; j < At.nt(); ++j) {
      for (int i = 0; i < At.mt(); ++i) {
        const ExtremeScan c = scan_extremes<double>(
            static_cast<const TileMatrix&>(At).tile(i, j));
        scan.finite = scan.finite && c.finite;
        scan.amax = std::max(scan.amax, c.amax);
      }
    }
  });
  if (!scan.finite || svd_safe_target<double>(scan.amax) != scan.amax) {
    throw std::runtime_error("rebuild: input needs safe scaling");
  }
  span(rep.spans, "core.ge2bnd", [&] {
    exec = ge2bnd<double>(At, ge2val_options(nthreads).ge2bnd);
  });
  // The executor run ends just before ge2bnd returns; its task times are
  // relative to the run's start.
  rep.run_t0 = rep.spans.back().t1 - exec.seconds;
  rep.tasks = exec.trace;
  BandMatrix band;
  span(rep.spans, "band.extract", [&] { band = band_from_tiles<double>(At); });
  Bidiagonal bd;
  span(rep.spans, "band.bnd2bd", [&] { bd = bnd2bd<double>(band); });
  std::vector<double> sv;
  span(rep.spans, "band.bd2val", [&] {
    const std::vector<double> v = bd2val<double>(bd, {}, &bi);
    sv.assign(v.begin(), v.end());
  });
  sv.resize(n);
  sum_spans(rep);
  return sv;
}

/// gesvd_truncated rebuilt from Rng, gemm, tsqr, tsqr_form_q and
/// small_svd_values, in the driver's order and with its default options
/// (oversample 8, one power iteration, Greedy tree, default sketch seed).
std::vector<double> rebuild_rsvd(const Matrix& A, int k, int nthreads,
                                 TracedRep& rep, double& gemm_flops,
                                 std::size_t& tsqr_tasks, Bd2valInfo& bi) {
  const GesvdTruncatedOptions opts = rsvd_options(nthreads);
  const int m = A.rows(), n = A.cols();
  ExtremeScan scan;
  span(rep.spans, "common.hazard_scan",
       [&] { scan = scan_extremes<double>(A.cview()); });
  if (!scan.finite || svd_safe_target<double>(scan.amax) != scan.amax) {
    throw std::runtime_error("rebuild: input needs safe scaling");
  }
  const int l = std::min(n, k + tune::resolved_oversample(opts.oversample, 8));
  Matrix Aw(m, n), Omega(n, l);
  span(rep.spans, "rsvd.sketch", [&] {
    copy<double>(A.cview(), Aw.view());
    Rng rng(opts.seed);
    for (int j = 0; j < l; ++j) {
      for (int i = 0; i < n; ++i) Omega(i, j) = rng.normal();
    }
  });
  gemm_flops = 0.0;
  auto product = [&](Trans ta, ConstMatrixView X, MatrixView out) {
    span(rep.spans, "lac.gemm", [&] {
      gemm<double>(ta, Trans::No, 1.0, Aw.cview(), X, 0.0, out);
    });
    gemm_flops += 2.0 * m * n * X.n;
  };
  TsqrOptions qo;
  qo.tree = opts.tree;
  qo.nb = opts.nb;
  qo.ib = opts.ib;
  qo.nthreads = opts.nthreads;
  tsqr_tasks = 0;
  auto orthonormalize = [&](ConstMatrixView X) {
    TsqrFactors f;
    span(rep.spans, "rsvd.tsqr", [&] { f = tsqr<double>(X, qo); });
    tsqr_tasks += f.ntasks;
    Matrix Q;
    span(rep.spans, "rsvd.form_q",
         [&] { Q = tsqr_form_q<double>(f, opts.nthreads); });
    return Q;
  };
  Matrix Y(m, l);
  product(Trans::No, Omega.cview(), Y.view());
  for (int it = 0; it < opts.power_iters; ++it) {
    Matrix Z(n, l);
    product(Trans::Yes, Y.cview(), Z.view());
    const Matrix Qz = orthonormalize(Z.cview());
    product(Trans::No, Qz.cview(), Y.view());
  }
  const Matrix Q = orthonormalize(Y.cview());
  Matrix W(n, l);
  product(Trans::Yes, Q.cview(), W.view());
  std::vector<double> sv;
  span(rep.spans, "batched.small_svd", [&] {
    std::vector<double> tfac(static_cast<std::size_t>(l) * l);
    std::vector<double> rbuf(static_cast<std::size_t>(l) * l);
    const std::vector<double> v = batched::small_svd_values<double>(
        W.view(), tfac.data(), rbuf.data(), opts.bd2val, &bi);
    sv.assign(v.begin(), v.begin() + k);
  });
  sum_spans(rep);
  return sv;
}

// ------------------------------------------------------------ the runs ---

struct Args {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  bool tiny = false;
  bool perturb = false;
  std::string trace_out;
};

struct Outcome {
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  Metrics metrics;
  JsonObject info;
};

/// Deliberate corruption for the self-test: one value off by 1e-6.
void perturb(CallResult& r) {
  if (!r.values.empty() && !r.values[0].empty()) r.values[0][0] *= 1.0 + 1e-6;
}

std::size_t matrices_per_call(const Input& in) { return in.probs.size(); }

Outcome run_timed(const Args& a, const Input& in) {
  Outcome out;
  std::vector<double> cold;
  for (int c = 0; c < kColdChildren; ++c) {
    const double s = cold_call_in_child(in);
    out.attempted += matrices_per_call(in);
    if (s < 0.0) {
      out.failed += matrices_per_call(in);
    } else {
      cold.push_back(s);
    }
  }

  // One checked call, timed; misses land in out.failed. `same` demands a
  // bitwise-identical result.
  double relerr = 0.0;
  auto checked_call = [&](int nthreads, bool corrupt, const CallResult* same,
                          CallResult& r) {
    WallTimer t;
    try {
      r = solve(in, nthreads);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: driver threw: %s\n", e.what());
    }
    const double s = t.seconds();
    if (corrupt) perturb(r);
    out.attempted += matrices_per_call(in);
    out.failed += count_misses(r, in, relerr, same);
    return s;
  };

  // The process's own first call is one more cold sample.
  {
    CallResult r;
    const std::size_t failed_before = out.failed;
    const double s = checked_call(kThreads, false, nullptr, r);
    if (out.failed == failed_before) cold.push_back(s);
  }
  const JsonObject tuning = pinned_tuning();

  const bool rss_reset = reset_peak_rss();
  std::vector<double> calls;
  CallResult last;
  WallTimer loop;
  while ((loop.seconds() < a.seconds ||
          calls.size() < static_cast<std::size_t>(kMinCalls)) &&
         loop.seconds() < 3.0 * a.seconds + 60.0) {
    CallResult r;
    calls.push_back(
        checked_call(kThreads, a.perturb && calls.empty(), nullptr, r));
    last = std::move(r);
  }
  const double loop_s = loop.seconds();
  const double rss = peak_rss_mb();

  // Thread-count contract: a 1-thread call reproduces the 4-thread result
  // bitwise (checked against the last timed call).
  CallResult serial;
  const std::size_t failed_before = out.failed;
  checked_call(1, false, &last, serial);
  const bool thread_bitwise = out.failed == failed_before;

  const double p50 = median(calls);
  const double tail_p = tail_percentile(calls.size());
  const double tail = percentile(calls, tail_p);
  const double ok_frac =
      out.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted);
  out.metrics.add("solve_p50_s", p50, "s");
  out.metrics.add("solve_tail_s", tail, "s");
  out.metrics.add("matrices_per_s",
                  static_cast<double>(calls.size() * matrices_per_call(in)) /
                      loop_s,
                  "1/s");
  out.metrics.add("ok_frac", ok_frac, "frac");
  out.metrics.add("setup_s", median(cold), "s");
  out.metrics.add("peak_rss_mb", rss, "MB");

  out.info.put("calls", static_cast<double>(calls.size()));
  out.info.put("loop_s", loop_s);
  out.info.put("tail_percentile", tail_p);
  out.info.put("calls_beyond_tail",
               static_cast<double>(std::count_if(
                   calls.begin(), calls.end(),
                   [tail](double s) { return s > tail; })));
  out.info.put("failed_frac", 1.0 - ok_frac);
  out.info.put("sv_max_relerr", relerr);
  out.info.raw("cold_s", num_list(cold));
  out.info.raw("call_s", num_list(calls));
  out.info.put("thread_bitwise", thread_bitwise);
  out.info.put("peak_rss_reset", rss_reset);
  out.info.raw("tuning", tuning.str());
  out.correct = out.failed == 0;
  return out;
}

/// All per-layer metric names with their units, in output order. Layers a
/// workload never calls read 0: that is the measurement, not a gap (e.g.
/// core.ge2bnd_s = 0 on rsvd_topk confirms it skips GE2BND).
const std::vector<std::pair<std::string, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, const char*>> names = [] {
    std::vector<std::pair<std::string, const char*>> v = {
        {"band.bnd2bd_s", "s"},          {"band.bnd2bd_gflops", "GF/s"},
        {"band.extract_s", "s"},         {"band.bd2val_s", "s"},
        {"band.qr_iterations", "count"}, {"band.bisection_fallbacks", "count"},
        {"core.ge2bnd_s", "s"},          {"core.ge2bnd_tasks", "count"}};
    for (const char* op :
         {"GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR", "GELQT",
          "UNMLQ", "TSLQT", "TSMLQ", "TTLQT", "TTMLQ", "LASET"}) {
      v.emplace_back(std::string("kernels.") + op + "_s", "s");
    }
    const std::vector<std::pair<std::string, const char*>> rest = {
        {"kernels.gflops", "GF/s"},
        {"runtime.busy_s", "s"},
        {"runtime.idle_s", "s"},
        {"runtime.utilization", "frac"},
        {"runtime.scaling_eff", "frac"},
        {"cp.makespan_over_cp", "ratio"},
        {"cp.makespan_over_sim", "ratio"},
        {"tile.pack_s", "s"},
        {"common.hazard_scan_s", "s"},
        {"rsvd.sketch_s", "s"},
        {"lac.gemm_s", "s"},
        {"lac.gemm_gflops", "GF/s"},
        {"rsvd.tsqr_s", "s"},
        {"rsvd.tsqr_tasks", "count"},
        {"rsvd.form_q_s", "s"},
        {"batched.small_svd_s", "s"},
        {"batched.direct_s", "s"},
        {"batched.tiled_s", "s"},
        {"batched.parallel_eff", "frac"},
        {"batched.speedup_vs_loop", "ratio"},
        {"trace.overhead_s", "s"},
        {"accuracy.sv_max_relerr", "rel"}};
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

/// Median over reps of one stage (0 when the stage never ran).
double stage_median(const std::vector<TracedRep>& reps,
                    const std::string& name) {
  std::vector<double> v;
  for (const TracedRep& r : reps) {
    auto it = r.stage_s.find(name);
    v.push_back(it == r.stage_s.end() ? 0.0 : it->second);
  }
  return median(v);
}

/// Index of the rep whose traced total is the median one.
std::size_t median_rep(const std::vector<TracedRep>& reps) {
  std::vector<std::pair<double, std::size_t>> t;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    t.emplace_back(reps[i].total(), i);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2].second;
}

/// Per-layer values of the ge2val workloads.
void ge2val_layers(const Input& in, const std::vector<TracedRep>& reps,
                   const std::vector<ExecResult>& execs, double ge2bnd_1t,
                   const std::vector<Bd2valInfo>& bis,
                   std::map<std::string, double>& v) {
  const Matrix& A = in.probs[0].A;
  const int nb = std::min(tune::resolved_nb(0, 8, kPinnedNb),
                          std::max(64, A.cols()));
  const int p = pad_to_tiles(A.rows(), nb) / nb;
  const int q = pad_to_tiles(A.cols(), nb) / nb;
  const double mp = static_cast<double>(p) * nb, np = static_cast<double>(q) * nb;
  const bool use_r = prefer_rbidiag(p, q);

  v["tile.pack_s"] = stage_median(reps, "tile.pack");
  v["common.hazard_scan_s"] = stage_median(reps, "common.hazard_scan");
  v["core.ge2bnd_s"] = stage_median(reps, "core.ge2bnd");
  v["core.ge2bnd_tasks"] = static_cast<double>(execs[0].ntasks);
  v["band.extract_s"] = stage_median(reps, "band.extract");
  v["band.bnd2bd_s"] = stage_median(reps, "band.bnd2bd");
  v["band.bnd2bd_gflops"] = flops_bnd2bd(np, nb) / v["band.bnd2bd_s"] * 1e-9;
  v["band.bd2val_s"] = stage_median(reps, "band.bd2val");
  std::vector<double> iters, fallbacks;
  for (const Bd2valInfo& b : bis) {
    iters.push_back(static_cast<double>(b.qr_iterations));
    fallbacks.push_back(b.bisection_fallback ? 1.0 : 0.0);
  }
  v["band.qr_iterations"] = median(iters);
  v["band.bisection_fallbacks"] = median(fallbacks);

  // Executor: per-kernel busy seconds, utilization, and the distance of
  // the measured makespan from the paper's DAG model costed with this
  // run's mean per-kernel times.
  std::vector<double> busy, makespan, util;
  std::map<std::string, std::vector<double>> per_op;
  std::map<std::string, KernelStats> pooled;
  for (const ExecResult& e : execs) {
    busy.push_back(e.trace.busy_seconds());
    makespan.push_back(e.trace.makespan());
    util.push_back(e.trace.utilization(kThreads));
    for (const auto& [name, ks] : e.trace.by_kernel()) {
      per_op[name].push_back(ks.total_seconds);
      pooled[name].count += ks.count;
      pooled[name].total_seconds += ks.total_seconds;
    }
  }
  for (auto& [name, secs] : per_op) {
    secs.resize(execs.size(), 0.0);
    v["kernels." + name + "_s"] = median(secs);
  }
  const double flops = use_r ? flops_rbidiag(mp, np) : flops_ge2bnd(mp, np);
  v["kernels.gflops"] = flops / median(busy) * 1e-9;
  v["runtime.busy_s"] = median(busy);
  v["runtime.idle_s"] = kThreads * median(makespan) - median(busy);
  v["runtime.utilization"] = median(util);
  v["runtime.scaling_eff"] =
      ge2bnd_1t / (kThreads * v["core.ge2bnd_s"]);

  AlgConfig cfg;
  cfg.ncores = kThreads;
  const std::vector<TileOp> ops =
      use_r ? build_rbidiag_ops(p, q, cfg) : build_bidiag_ops(p, q, cfg);
  const OpCost cost = [&pooled](const TileOp& t) {
    auto it = pooled.find(op_name(t.op));
    return it == pooled.end() || it->second.count == 0
               ? 0.0
               : it->second.total_seconds / it->second.count;
  };
  const double cp = analyze_dag(ops, cost).critical_path;
  const double sim = simulate_schedule(ops, kThreads, cost).makespan;
  v["cp.makespan_over_cp"] = median(makespan) / cp;
  v["cp.makespan_over_sim"] = median(makespan) / sim;
}

Outcome run_traced(const Args& a, const Input& in) {
  Outcome out;
  std::map<std::string, double> v;
  for (const auto& [name, unit] : layer_metric_names()) v[name] = 0.0;

  double relerr = 0.0;
  auto check = [&](const CallResult& r, const CallResult* same) {
    out.attempted += matrices_per_call(in);
    const std::size_t misses = count_misses(r, in, relerr, same);
    out.failed += misses;
    return misses == 0;
  };
  auto untraced = [&](int nthreads, std::vector<double>& times) {
    WallTimer t;
    CallResult r = solve(in, nthreads);
    times.push_back(t.seconds());
    return r;
  };

  // The reference: the untraced driver's own spectrum (also the warm-up).
  std::vector<double> warm;
  const CallResult ref = untraced(kThreads, warm);
  check(ref, nullptr);
  const JsonObject tuning = pinned_tuning();

  std::vector<TracedRep> reps;
  std::vector<double> untraced_s;
  bool rebuild_bitwise = true;
  WallTimer loop;
  auto keep_going = [&](std::size_t min_reps) {
    return loop.seconds() < a.seconds || reps.size() < min_reps;
  };
  if (in.kind == Kind::Tall) {
    std::vector<ExecResult> execs;
    std::vector<Bd2valInfo> bis;
    while (keep_going(3)) {
      check(untraced(kThreads, untraced_s), &ref);
      TracedRep rep;
      ExecResult e;
      Bd2valInfo bi;
      CallResult r;
      r.values.push_back(rebuild_ge2val(in.probs[0].A, kThreads, rep, e, bi));
      r.ok.push_back(ok_status(bi.status));
      if (a.perturb && reps.empty()) perturb(r);
      rebuild_bitwise = check(r, &ref) && rebuild_bitwise;
      reps.push_back(std::move(rep));
      execs.push_back(std::move(e));
      bis.push_back(bi);
    }
    // One serial-thread rebuild: the scaling baseline and the thread-count
    // contract (bitwise equal to the 4-thread driver).
    TracedRep rep1;
    ExecResult e1;
    Bd2valInfo bi1;
    CallResult r1;
    r1.values.push_back(rebuild_ge2val(in.probs[0].A, 1, rep1, e1, bi1));
    r1.ok.push_back(ok_status(bi1.status));
    out.info.put("thread_bitwise", check(r1, &ref));
    ge2val_layers(in, reps, execs, rep1.stage_s["core.ge2bnd"], bis, v);
  } else if (in.kind == Kind::Rsvd) {
    std::vector<double> gflops;
    std::vector<double> tasks, iters;
    while (keep_going(3)) {
      check(untraced(kThreads, untraced_s), &ref);
      TracedRep rep;
      double flops = 0.0;
      std::size_t ntasks = 0;
      Bd2valInfo bi;
      CallResult r;
      r.values.push_back(rebuild_rsvd(in.probs[0].A, in.k, kThreads, rep,
                                      flops, ntasks, bi));
      r.ok.push_back(ok_status(bi.status));
      if (a.perturb && reps.empty()) perturb(r);
      rebuild_bitwise = check(r, &ref) && rebuild_bitwise;
      gflops.push_back(flops / rep.stage_s["lac.gemm"] * 1e-9);
      tasks.push_back(static_cast<double>(ntasks));
      iters.push_back(static_cast<double>(bi.qr_iterations));
      reps.push_back(std::move(rep));
    }
    CallResult r1 = solve(in, 1);
    out.info.put("thread_bitwise", check(r1, &ref));
    v["common.hazard_scan_s"] = stage_median(reps, "common.hazard_scan");
    v["rsvd.sketch_s"] = stage_median(reps, "rsvd.sketch");
    v["lac.gemm_s"] = stage_median(reps, "lac.gemm");
    v["lac.gemm_gflops"] = median(gflops);
    v["rsvd.tsqr_s"] = stage_median(reps, "rsvd.tsqr");
    v["rsvd.tsqr_tasks"] = median(tasks);
    v["rsvd.form_q_s"] = stage_median(reps, "rsvd.form_q");
    v["batched.small_svd_s"] = stage_median(reps, "batched.small_svd");
    v["band.qr_iterations"] = median(iters);
  } else {
    // Sub-batches split by path: each must reproduce its problems' full
    // batch spectra bitwise; so must the 1-thread full batch.
    std::vector<std::size_t> direct_idx, tiled_idx;
    std::vector<ConstMatrixView> direct, tiled;
    for (std::size_t i = 0; i < in.views.size(); ++i) {
      const bool is_tiled = in.views[i].n > kPinnedDirectCols;
      (is_tiled ? tiled_idx : direct_idx).push_back(i);
      (is_tiled ? tiled : direct).push_back(in.views[i]);
    }
    auto scatter = [&](const CallResult& part,
                       const std::vector<std::size_t>& idx, CallResult& full) {
      for (std::size_t j = 0; j < idx.size(); ++j) {
        full.values[idx[j]] = part.values[j];
        full.ok[idx[j]] = part.ok[j];
      }
    };
    std::vector<double> one_thread_s, loop_s;
    bool thread_bitwise = true;
    while (keep_going(1)) {
      check(untraced(kThreads, untraced_s), &ref);
      TracedRep rep;
      CallResult joined;
      joined.values.resize(in.views.size());
      joined.ok.assign(in.views.size(), false);
      CallResult part;
      span(rep.spans, "batched.direct",
           [&] { part = batch_call(direct, kThreads); });
      scatter(part, direct_idx, joined);
      span(rep.spans, "batched.tiled",
           [&] { part = batch_call(tiled, kThreads); });
      scatter(part, tiled_idx, joined);
      if (a.perturb && reps.empty()) perturb(joined);
      rebuild_bitwise = check(joined, &ref) && rebuild_bitwise;
      CallResult r1;
      one_thread_s.push_back(span(rep.spans, "batched.full_1thread",
                                  [&] { r1 = batch_call(in.views, 1); }));
      thread_bitwise = check(r1, &ref) && thread_bitwise;
      CallResult looped;
      loop_s.push_back(span(rep.spans, "batched.gesvd_values_loop", [&] {
        for (const ConstMatrixView& p : in.views) {
          SvdInfo info;
          looped.values.push_back(
              gesvd_values<double>(p, GesvdOptions{}, nullptr, &info));
          looped.ok.push_back(info.ok());
        }
      }));
      check(looped, nullptr);
      for (const Span& s : rep.spans) {
        if (s.name == "batched.direct" || s.name == "batched.tiled") {
          rep.stage_s[s.name] += s.seconds();
        }
      }
      reps.push_back(std::move(rep));
    }
    out.info.put("thread_bitwise", thread_bitwise);
    const double full = median(untraced_s);
    v["batched.direct_s"] = stage_median(reps, "batched.direct");
    v["batched.tiled_s"] = stage_median(reps, "batched.tiled");
    v["batched.parallel_eff"] = median(one_thread_s) / (kThreads * full);
    v["batched.speedup_vs_loop"] = median(loop_s) / full;
  }

  std::vector<double> totals;
  for (const TracedRep& r : reps) totals.push_back(r.total());
  v["trace.overhead_s"] = median(totals) - median(untraced_s);
  v["accuracy.sv_max_relerr"] = relerr;

  for (const auto& [name, unit] : layer_metric_names()) {
    out.metrics.add(name, v[name], unit);
  }
  JsonObject split;
  const double traced_total = median(totals);
  for (const auto& kv : reps[median_rep(reps)].stage_s) {
    split.put(kv.first, stage_median(reps, kv.first) / traced_total);
  }
  out.info.raw("stage_share", split.str());
  out.info.put("reps", static_cast<double>(reps.size()));
  out.info.put("untraced_p50_s", median(untraced_s));
  out.info.put("traced_total_s", traced_total);
  out.info.put("rebuild_bitwise", rebuild_bitwise);
  out.info.raw("tuning", tuning.str());
  if (!a.trace_out.empty()) {
    const bool wrote = write_chrome_trace(a.trace_out, reps[median_rep(reps)],
                                          a.workload);
    out.info.put("trace_file", wrote ? a.trace_out : std::string());
    if (!wrote) out.correct = false;
  }
  out.correct = out.correct && out.failed == 0;
  return out;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--mode timed|traced] "
               "[--tiny] [--perturb] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    try {
      if (s == "--workload") {
        a.workload = value();
      } else if (s == "--mode") {
        a.mode = value();
      } else if (s == "--seed") {
        a.seed = std::stoull(value());
      } else if (s == "--seconds") {
        a.seconds = std::stod(value());
      } else if (s == "--trace-out") {
        a.trace_out = value();
      } else if (s == "--tiny") {
        a.tiny = true;
      } else if (s == "--perturb") {
        a.perturb = true;
      } else {
        usage(("unknown argument " + s).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + s).c_str());
    }
  }
  if (a.mode != "timed" && a.mode != "traced") usage("unknown --mode");
  if (!(a.seconds > 0.0)) usage("--seconds must be given and positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Kind kind;
  if (!parse_kind(a.workload, kind)) usage("unknown --workload");
  try {
    WallTimer gen;
    const Input in = make_input(kind, a.seed, a.tiny);
    const double gen_s = gen.seconds();
    Outcome out = a.mode == "timed" ? run_timed(a, in) : run_traced(a, in);
    out.info.put("workload", a.workload);
    out.info.put("mode", a.mode);
    out.info.put("seed", static_cast<double>(a.seed));
    out.info.put("tiny", a.tiny);
    out.info.put("input_gen_s", gen_s);
    out.info.put("threads", static_cast<double>(kThreads));
    out.info.put("build_type", PERFBENCH_BUILD_TYPE);
    JsonObject top;
    top.put("correct", out.correct);
    top.put("attempted", static_cast<double>(out.attempted));
    top.put("failed", static_cast<double>(out.failed));
    top.raw("metrics", out.metrics.obj.str());
    top.raw("info", out.info.str());
    std::printf("%s\n", top.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
