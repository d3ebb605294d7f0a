#include "tune/tune.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <sys/stat.h>
#include <sys/types.h>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/flops.hpp"
#include "common/timer.hpp"
#include "core/svd.hpp"
#include "tile/matrix_gen.hpp"
#include "tune/calibrate.hpp"

namespace tbsvd::tune {

namespace {

/// Every Op the calibration table must cover (the full TileOp vocabulary);
/// a persisted file missing any of them is rejected as corrupt.
constexpr Op kAllOps[] = {
    Op::GEQRT, Op::UNMQR, Op::TSQRT, Op::TSMQR, Op::TTQRT, Op::TTMQR,
    Op::GELQT, Op::UNMLQ, Op::TSLQT, Op::TSMLQ, Op::TTLQT, Op::TTMLQ,
    Op::LASET,
};

[[noreturn]] void parse_fail(const std::string& what) {
  throw invalid_argument_error("tune: calibration parse error: " + what);
}

// ---- minimal JSON reader -------------------------------------------------
// Just enough for the tune-file schema (objects, arrays, strings, numbers),
// with typed errors on anything malformed or truncated. No escapes beyond
// \" and \\ are needed by the schema; others are rejected.

struct JVal {
  enum class K { Num, Str, Arr, Obj };
  K k = K::Num;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  [[nodiscard]] const JVal* get(const std::string& key) const {
    for (const auto& [k2, v] : obj) {
      if (k2 == key) return &v;
    }
    return nullptr;
  }
};

struct Parser {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool at(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  void expect(char c) {
    skip_ws();
    if (p >= end || *p != c) {
      parse_fail(std::string("expected '") + c + "'" +
                 (p >= end ? " but input is truncated" : ""));
    }
    ++p;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end || (*p != '"' && *p != '\\')) {
          parse_fail("unsupported string escape");
        }
      }
      out.push_back(*p++);
    }
    if (p >= end) parse_fail("unterminated string (truncated file?)");
    ++p;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    char* num_end = nullptr;
    const double v = std::strtod(p, &num_end);
    if (num_end == p || num_end > end) parse_fail("expected a number");
    if (!std::isfinite(v)) parse_fail("non-finite number");
    p = num_end;
    return v;
  }

  JVal parse_value(int depth = 0) {
    if (depth > 16) parse_fail("nesting too deep");
    skip_ws();
    if (p >= end) parse_fail("unexpected end of input (truncated file?)");
    JVal v;
    if (*p == '{') {
      ++p;
      v.k = JVal::K::Obj;
      if (at('}')) {
        ++p;
        return v;
      }
      while (true) {
        std::string key = parse_string();
        expect(':');
        v.obj.emplace_back(std::move(key), parse_value(depth + 1));
        if (at(',')) {
          ++p;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (*p == '[') {
      ++p;
      v.k = JVal::K::Arr;
      if (at(']')) {
        ++p;
        return v;
      }
      while (true) {
        v.arr.push_back(parse_value(depth + 1));
        if (at(',')) {
          ++p;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (*p == '"') {
      v.k = JVal::K::Str;
      v.str = parse_string();
      return v;
    }
    v.k = JVal::K::Num;
    v.num = parse_number();
    return v;
  }
};

const JVal& require(const JVal& obj, const std::string& key, JVal::K kind,
                    const char* what) {
  if (obj.k != JVal::K::Obj) parse_fail(std::string(what) + ": not an object");
  const JVal* v = obj.get(key);
  if (v == nullptr) {
    parse_fail(std::string(what) + ": missing key \"" + key + "\"");
  }
  if (v->k != kind) {
    parse_fail(std::string(what) + ": key \"" + key + "\" has wrong type");
  }
  return *v;
}

int require_int(const JVal& obj, const std::string& key, const char* what,
                int min_value) {
  const double d = require(obj, key, JVal::K::Num, what).num;
  const int v = static_cast<int>(d);
  if (static_cast<double>(v) != d || v < min_value) {
    parse_fail(std::string(what) + ": key \"" + key + "\" out of range");
  }
  return v;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return !path.empty() && ::stat(path.c_str(), &st) == 0 &&
         S_ISREG(st.st_mode);
}

// mkdir -p for the parent directories of `path` (best effort; the final
// fopen decides success).
void make_parent_dirs(const std::string& path) {
  std::string::size_type pos = 0;
  while ((pos = path.find('/', pos + 1)) != std::string::npos) {
    const std::string dir = path.substr(0, pos);
    if (!dir.empty()) ::mkdir(dir.c_str(), 0755);
  }
}

// ---- process-wide active calibration ------------------------------------

std::mutex g_active_mtx;
bool g_load_attempted = false;
bool g_have_active = false;
Calibration g_active;
TuneLoadInfo g_load_info;

// Callers hold g_active_mtx.
void lazy_load_locked() noexcept {
  if (g_load_attempted) return;
  g_load_attempted = true;
  g_load_info = TuneLoadInfo{};
  const char* env = std::getenv("TBSVD_TUNE_FILE");
  const std::string path = default_tune_path();
  g_load_info.path = path;
  if (path.empty() || (env == nullptr && !file_exists(path))) {
    // Genuine first run: nothing was asked for and nothing exists.
    g_load_info.message = "no calibration file; using built-in defaults";
    return;
  }
  try {
    g_active = load_calibration(path, &g_load_info);
    g_have_active = true;
  } catch (const std::exception& e) {
    // Flagged fallback: the library keeps running on built-in defaults,
    // but the failure is recorded, never swallowed.
    g_load_info.status = Status::InvalidArgument;
    g_load_info.message = e.what();
  }
}

const PrecisionCalib* active_table_locked(int scalar_bytes) noexcept {
  lazy_load_locked();
  if (!g_have_active) return nullptr;
  const PrecisionCalib* t = g_active.find_scalar(scalar_bytes);
  if (t == nullptr && !g_active.precisions.empty()) {
    // A single-precision file still informs the other width's structural
    // choices (nb/ib transfer reasonably; kernel times do not scale, but a
    // measured table beats unit weights even cross-precision).
    t = &g_active.precisions.front();
  }
  return t;
}

// ---- autotune internals --------------------------------------------------

template <class T>
MatrixT<T> tune_input(int m, int n, std::uint64_t seed) {
  Matrix Ad = generate_random(m, n, seed);
  MatrixT<T> A(m, n);
  convert_matrix(Ad.cview(), A.view());
  return A;
}

template <class T>
double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer w;
    fn();
    best = std::min(best, w.seconds());
  }
  return best;
}

template <class T>
PrecisionCalib tune_precision(const std::vector<int>& nbs,
                              const std::vector<int>& ibs, int reps,
                              int target) {
  PrecisionCalib pc;
  pc.dtype = sizeof(T) == sizeof(float) ? "f32" : "f64";

  MatrixT<T> A = tune_input<T>(target, target, 4242);
  const double work = flops_ge2bnd(target, target);
  std::set<std::pair<int, int>> seen;
  double best_secs = 1e300;
  for (const int nb : nbs) {
    for (int ib : ibs) {
      ib = std::min(ib, nb);
      if (!seen.insert({nb, ib}).second) continue;
      GesvdOptions go;
      go.nb = nb;
      go.ge2bnd.ib = ib;
      const double secs = time_best_of<T>(reps, [&] {
        auto sv = gesvd_values<T>(A.cview(), go);
        (void)sv;
      });
      if (secs < best_secs) {
        best_secs = secs;
        pc.nb = nb;
        pc.ib = ib;
      }
    }
  }
  TBSVD_INTERNAL_CHECK(pc.nb >= 1, "autotune: empty (nb, ib) grid");
  pc.e2e_gflops = work / best_secs / 1e9;
  pc.kernel_seconds = calibrate_kernels<T>(pc.nb, pc.ib, reps);
  pc.gemm_gflops = calibrate_gemm_gflops<T>(pc.nb, reps);
  return pc;
}

}  // namespace

const PrecisionCalib* Calibration::find(const std::string& dtype) const {
  for (const PrecisionCalib& p : precisions) {
    if (p.dtype == dtype) return &p;
  }
  return nullptr;
}

const PrecisionCalib* Calibration::find_scalar(int scalar_bytes) const {
  return find(scalar_bytes == static_cast<int>(sizeof(float)) ? "f32"
                                                              : "f64");
}

std::string host_fingerprint() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0') {
    return "unknown-host";
  }
  return buf;
}

std::string serialize_calibration(const Calibration& c) {
  std::string out;
  char line[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  add("{\n  \"tbsvd_tune_version\": %d,\n", c.version);
  add("  \"host\": \"%s\",\n", c.host.c_str());
  out += "  \"precisions\": [\n";
  for (std::size_t i = 0; i < c.precisions.size(); ++i) {
    const PrecisionCalib& p = c.precisions[i];
    add("    {\"dtype\": \"%s\", \"nb\": %d, \"ib\": %d,\n",
        p.dtype.c_str(), p.nb, p.ib);
    add("     \"gemm_gflops\": %.3f, \"e2e_gflops\": %.3f,\n", p.gemm_gflops,
        p.e2e_gflops);
    out += "     \"kernel_seconds\": {";
    for (std::size_t k = 0; k < std::size(kAllOps); ++k) {
      const Op op = kAllOps[k];
      const auto it = p.kernel_seconds.find(op);
      const double secs = it == p.kernel_seconds.end() ? 0.0 : it->second;
      add("%s\"%s\": %.9e", k == 0 ? "" : ", ", op_name(op), secs);
    }
    out += "}}";
    out += i + 1 < c.precisions.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Calibration parse_calibration(const std::string& text, TuneLoadInfo* info) {
  if (TBSVD_FAULT_FIRE("tune.load_poison")) {
    throw invalid_argument_error(
        "injected fault: tune calibration load poisoned");
  }
  Parser parser{text.data(), text.data() + text.size()};
  const JVal root = parser.parse_value();
  if (root.k != JVal::K::Obj) parse_fail("root is not an object");

  const int version =
      require_int(root, "tbsvd_tune_version", "calibration", 0);
  if (version != kTuneFileVersion) {
    throw invalid_argument_error(
        "tune: calibration file version mismatch (file has " +
        std::to_string(version) + ", library expects " +
        std::to_string(kTuneFileVersion) + "); re-run tbsvd_tune");
  }

  Calibration c;
  c.version = version;
  c.host = require(root, "host", JVal::K::Str, "calibration").str;

  const JVal& precs =
      require(root, "precisions", JVal::K::Arr, "calibration");
  if (precs.arr.empty()) parse_fail("precisions array is empty");
  for (const JVal& pv : precs.arr) {
    PrecisionCalib p;
    p.dtype = require(pv, "dtype", JVal::K::Str, "precision entry").str;
    if (p.dtype != "f32" && p.dtype != "f64") {
      parse_fail("precision dtype must be \"f32\" or \"f64\"");
    }
    p.nb = require_int(pv, "nb", "precision entry", 1);
    p.ib = require_int(pv, "ib", "precision entry", 1);
    if (p.ib > p.nb) parse_fail("precision entry: ib exceeds nb");
    p.gemm_gflops =
        require(pv, "gemm_gflops", JVal::K::Num, "precision entry").num;
    p.e2e_gflops =
        require(pv, "e2e_gflops", JVal::K::Num, "precision entry").num;
    const JVal& ks =
        require(pv, "kernel_seconds", JVal::K::Obj, "precision entry");
    for (const Op op : kAllOps) {
      const JVal* v = ks.get(op_name(op));
      if (v == nullptr || v->k != JVal::K::Num || !(v->num > 0.0)) {
        parse_fail(std::string("kernel table missing or non-positive for ") +
                   op_name(op));
      }
      p.kernel_seconds[op] = v->num;
    }
    c.precisions.push_back(std::move(p));
  }

  const bool mismatch = c.host != host_fingerprint();
  if (mismatch && info == nullptr) {
    throw invalid_argument_error(
        "tune: calibration was measured on host \"" + c.host +
        "\" but this is \"" + host_fingerprint() +
        "\" (stale file); pass a TuneLoadInfo to accept it flagged, or "
        "re-run tbsvd_tune");
  }
  if (info != nullptr) {
    info->host_mismatch = mismatch;
    info->status = mismatch ? Status::Degraded : Status::Ok;
    if (mismatch) {
      info->message = "calibration measured on host \"" + c.host +
                      "\", running on \"" + host_fingerprint() + "\"";
    }
  }
  return c;
}

Calibration load_calibration(const std::string& path, TuneLoadInfo* info) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw invalid_argument_error("tune: cannot read calibration file " +
                                 path);
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  if (info != nullptr) info->path = path;
  return parse_calibration(text, info);
}

void save_calibration(const std::string& path, const Calibration& c) {
  TBSVD_CHECK(!path.empty(), "tune: empty calibration path");
  const std::string text = serialize_calibration(c);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    make_parent_dirs(path);
    f = std::fopen(path.c_str(), "wb");
  }
  if (f == nullptr) {
    throw invalid_argument_error("tune: cannot write calibration file " +
                                 path);
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) {
    throw invalid_argument_error("tune: short write to calibration file " +
                                 path);
  }
}

std::string default_tune_path() {
  if (const char* env = std::getenv("TBSVD_TUNE_FILE");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && xdg[0] != '\0') {
    return std::string(xdg) + "/tbsvd/tune.json";
  }
  if (const char* home = std::getenv("HOME");
      home != nullptr && home[0] != '\0') {
    return std::string(home) + "/.cache/tbsvd/tune.json";
  }
  return {};
}

Calibration autotune(const TuneOptions& opts) {
  TuneOptions o = opts;
  if (o.smoke) {
    if (o.nbs.empty()) o.nbs = {32, 48};
    if (o.ibs.empty()) o.ibs = {8, 16};
    o.reps = 1;
    o.e2e_target = std::min(o.e2e_target, 128);
  }
  if (o.nbs.empty()) o.nbs = {64, 96, 128, 160, 192};
  if (o.ibs.empty()) o.ibs = {16, 32};
  TBSVD_CHECK(o.reps >= 1, "autotune: need reps >= 1");
  TBSVD_CHECK(o.e2e_target >= 8, "autotune: need e2e_target >= 8");
  TBSVD_CHECK(o.tune_f32 || o.tune_f64, "autotune: no precision selected");
  for (const int nb : o.nbs) TBSVD_CHECK(nb >= 1, "autotune: need nb >= 1");
  for (const int ib : o.ibs) TBSVD_CHECK(ib >= 1, "autotune: need ib >= 1");

  Calibration c;
  c.host = host_fingerprint();
  if (o.tune_f64) {
    c.precisions.push_back(
        tune_precision<double>(o.nbs, o.ibs, o.reps, o.e2e_target));
  }
  if (o.tune_f32) {
    c.precisions.push_back(
        tune_precision<float>(o.nbs, o.ibs, o.reps, o.e2e_target));
  }
  return c;
}

OpCost op_cost(const Calibration& c, int scalar_bytes) {
  const PrecisionCalib* t = c.find_scalar(scalar_bytes);
  if (t == nullptr && !c.precisions.empty()) t = &c.precisions.front();
  if (t == nullptr) return unit_cost();
  return measured_cost(t->kernel_seconds);
}

const Calibration* active() noexcept {
  std::lock_guard<std::mutex> lk(g_active_mtx);
  lazy_load_locked();
  return g_have_active ? &g_active : nullptr;
}

const TuneLoadInfo& active_load_info() noexcept {
  std::lock_guard<std::mutex> lk(g_active_mtx);
  lazy_load_locked();
  return g_load_info;
}

void set_active(const Calibration& c) {
  std::lock_guard<std::mutex> lk(g_active_mtx);
  g_active = c;
  g_have_active = true;
  g_load_attempted = true;
  g_load_info = TuneLoadInfo{};
  g_load_info.message = "calibration installed via set_active";
}

void reset_active() noexcept {
  std::lock_guard<std::mutex> lk(g_active_mtx);
  g_have_active = false;
  g_load_attempted = false;
  g_active = Calibration{};
  g_load_info = TuneLoadInfo{};
}

int resolved_nb(int requested, int scalar_bytes, int fallback) noexcept {
  if (requested > 0) return requested;
  std::lock_guard<std::mutex> lk(g_active_mtx);
  const PrecisionCalib* t = active_table_locked(scalar_bytes);
  return (t != nullptr && t->nb >= 1) ? t->nb : fallback;
}

int resolved_ib(int requested, int scalar_bytes, int fallback) noexcept {
  if (requested > 0) return requested;
  std::lock_guard<std::mutex> lk(g_active_mtx);
  const PrecisionCalib* t = active_table_locked(scalar_bytes);
  return (t != nullptr && t->ib >= 1) ? t->ib : fallback;
}

int resolved_direct_max_cols(int requested, int, int fallback) noexcept {
  return requested > 0 ? requested : fallback;
}

int resolved_oversample(int requested, int fallback) noexcept {
  // No calibration probe for the sketch width yet: the sentinel resolves
  // to the built-in default so today's behavior is deterministic, and a
  // future probed value slots in here without touching any call site.
  return requested > 0 ? requested : fallback;
}

OpCost active_op_cost(int scalar_bytes) noexcept {
  std::lock_guard<std::mutex> lk(g_active_mtx);
  const PrecisionCalib* t = active_table_locked(scalar_bytes);
  if (t == nullptr || t->kernel_seconds.empty()) return {};
  return measured_cost(t->kernel_seconds);
}

}  // namespace tbsvd::tune
