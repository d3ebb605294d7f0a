// First-run autotuner: measured per-machine kernel calibration feeding
// tile-size, crossover and scheduler-priority decisions.
//
// The paper tuned nb = 160 / ib = 32 on its 2017 Haswell testbed and
// derived the critical-path constants from Table-I kernel weights measured
// there. On this implementation the weights sit off the paper's (TTQRT
// ~2.4 vs 2, update kernels 2-3x cheaper per unit — docs/PERF.md), so
// hard-coded paper choices mispredict. This subsystem measures the six
// kernel families plus GEMM across an nb x ib x dtype grid on the *current*
// machine, fits a best (nb, ib) and a per-kernel cost table per precision,
// and persists the result to a small versioned JSON calibration file.
//
// Producing a calibration:
//   - the `tbsvd_tune` tool (tools/tbsvd_tune.cpp), or
//   - autotune() from code.
// Consuming it:
//   - `TBSVD_TUNE_FILE=<path>` (or the default ~/.cache/tbsvd/tune.json)
//     is loaded lazily on the first call to active(); from then on
//     GesvdOptions::nb == 0 / Ge2bndOptions::ib == 0 resolve to the tuned
//     values, execute_tile_ops seeds the Scheduler's priorities from
//     weighted critical paths (cp_priorities under the measured OpCost),
//     and DistSimParams::nb == 0 takes the tuned tile size.
//   - Benches accept `--tune-file PATH` so recorded runs share one
//     persisted cost model instead of re-calibrating per invocation.
//
// Failure contract (docs/ROBUSTNESS.md): a corrupt, truncated or
// version-mismatched file throws invalid_argument_error from
// load_calibration / parse_calibration. A host-mismatched (stale) file is
// usable but only with an explicit flag: pass a TuneLoadInfo* and the load
// succeeds with info->host_mismatch set (Status::Degraded); pass nullptr
// and it throws — never a silent fallback. The implicit active() path
// records what happened in active_load_info(). Fault-injection site:
// `tune.load_poison` (fires in parse_calibration).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/tile_ops.hpp"
#include "cp/dag_analysis.hpp"

namespace tbsvd::tune {

/// Calibration file schema version; a persisted file with any other value
/// is rejected typed (the schema is not forward-compatible by design).
inline constexpr int kTuneFileVersion = 1;

/// Measured calibration of one working precision.
struct PrecisionCalib {
  std::string dtype;          ///< "f32" or "f64"
  int nb = 0;                 ///< best tile size found on the grid
  int ib = 0;                 ///< best inner blocking found on the grid
  double gemm_gflops = 0.0;   ///< nb x nb x nb GEMM rate of the backend
  double e2e_gflops = 0.0;    ///< GE2VAL rate at (nb, ib) on the tuning shape
  std::map<Op, double> kernel_seconds;  ///< all 13 Ops, seconds per call
};

/// A per-machine calibration: what the autotuner measured, or what a
/// persisted tune file holds. `host` fingerprints where it was measured.
struct Calibration {
  int version = kTuneFileVersion;
  std::string host;
  std::vector<PrecisionCalib> precisions;

  /// Table for "f32"/"f64", nullptr when that precision was not tuned.
  [[nodiscard]] const PrecisionCalib* find(const std::string& dtype) const;
  /// Table by scalar width (sizeof(float) -> "f32"), nullptr when absent.
  [[nodiscard]] const PrecisionCalib* find_scalar(int scalar_bytes) const;
};

/// Outcome of a calibration load. status is Ok for a clean load, Degraded
/// when the file was usable but flagged (host mismatch), InvalidArgument
/// when the implicit active() load failed and the library fell back to the
/// built-in defaults (the flag that makes the fallback non-silent).
struct TuneLoadInfo {
  Status status = Status::Ok;
  bool host_mismatch = false;
  std::string path;
  std::string message;
  [[nodiscard]] bool ok() const noexcept {
    return status == Status::Ok || status == Status::Degraded;
  }
};

/// Hostname fingerprint used in calibration files.
[[nodiscard]] std::string host_fingerprint();

/// Serialize to the versioned JSON schema (text, ends with newline).
[[nodiscard]] std::string serialize_calibration(const Calibration& c);

/// Parse a calibration from JSON text. Throws invalid_argument_error on
/// corrupt/truncated input, wrong schema version, or an incomplete kernel
/// table. A host that differs from this machine's fingerprint sets
/// info->host_mismatch (status Degraded); with info == nullptr it throws
/// instead (no flag channel => no silent acceptance of stale data).
[[nodiscard]] Calibration parse_calibration(const std::string& text,
                                            TuneLoadInfo* info = nullptr);

/// Load + parse a calibration file. Same contract as parse_calibration,
/// plus invalid_argument_error when the file cannot be read.
[[nodiscard]] Calibration load_calibration(const std::string& path,
                                           TuneLoadInfo* info = nullptr);

/// Write the calibration to `path` (parent directory must exist, except
/// for the default cache path which is created). Throws
/// invalid_argument_error when the file cannot be written.
void save_calibration(const std::string& path, const Calibration& c);

/// The path the implicit load uses: $TBSVD_TUNE_FILE if set, else
/// $XDG_CACHE_HOME/tbsvd/tune.json, else $HOME/.cache/tbsvd/tune.json.
[[nodiscard]] std::string default_tune_path();

/// Grid and budget of one autotune run.
struct TuneOptions {
  std::vector<int> nbs;  ///< empty => {64, 96, 128, 160, 192}
  std::vector<int> ibs;  ///< empty => {16, 32}
  int reps = 3;          ///< best-of-N per timing
  /// End-to-end scoring shape: each (nb, ib) candidate is scored by the
  /// measured GE2VAL rate at m = n ~= e2e_target (rounded to a tile
  /// multiple per candidate), which prices in both kernel efficiency (big
  /// nb) and the bulge-chase inflation (small nb).
  int e2e_target = 512;
  bool tune_f32 = true;
  bool tune_f64 = true;
  /// Smoke mode: tiny grid / single rep — the CI shape.
  bool smoke = false;
};

/// Run the measured grid search on this machine. Deterministic inputs;
/// timing noise is filtered best-of-reps. Does not touch the filesystem.
[[nodiscard]] Calibration autotune(const TuneOptions& opts = {});

/// Cost model from a calibration's kernel table for the given scalar
/// width; falls back to the other precision's table when that width was
/// not tuned, and to Table-I unit weights when the calibration is empty.
[[nodiscard]] OpCost op_cost(const Calibration& c, int scalar_bytes);

// ---- process-wide active calibration ------------------------------------
//
// The "first run" wiring: the first call to active() loads the persisted
// file named by default_tune_path() (if any). Drivers consult it through
// the resolved_* helpers, which keep today's hard-coded behavior bit-exact
// whenever no calibration is present.

/// The active calibration, lazily loaded; nullptr when none is available.
/// Never throws: an implicit load failure is recorded (flagged) in
/// active_load_info() and the library runs on built-in defaults.
[[nodiscard]] const Calibration* active() noexcept;

/// What the lazy load did (path, status, message). status InvalidArgument
/// means a file was named but unusable — flagged fallback, not silent.
[[nodiscard]] const TuneLoadInfo& active_load_info() noexcept;

/// Install a calibration programmatically (tools/tests); replaces any
/// lazily-loaded one.
void set_active(const Calibration& c);

/// Drop the active calibration AND re-arm the lazy load, so the next
/// active() call re-reads the environment (tests).
void reset_active() noexcept;

/// requested > 0 is explicit and wins; requested == 0 resolves to the
/// active calibration's value for the scalar width, else `fallback`.
[[nodiscard]] int resolved_nb(int requested, int scalar_bytes,
                              int fallback) noexcept;
[[nodiscard]] int resolved_ib(int requested, int scalar_bytes,
                              int fallback) noexcept;
/// requested > 0 ? requested : fallback. The calibration no longer carries
/// a batched direct-SVD cutoff (batched::svd has a single per-member path);
/// this stays only because perfbench/perfbench.cpp reports the value in
/// its pinned-tuning block, and goes with the next benchmark change.
[[nodiscard]] int resolved_direct_max_cols(int requested, int scalar_bytes,
                                           int fallback) noexcept;

/// Oversampling columns of the randomized range finder (src/rsvd):
/// requested > 0 wins; the 0 sentinel resolves to `fallback` today — the
/// calibration schema carries no oversampling probe yet, and this is the
/// single place a future probe plugs into (same contract as the other
/// resolved_* sentinels).
[[nodiscard]] int resolved_oversample(int requested, int fallback) noexcept;

/// Measured OpCost of the active calibration for the scalar width, or an
/// empty function when no calibration (or no usable table) is active —
/// callers treat empty as "keep static behavior".
[[nodiscard]] OpCost active_op_cost(int scalar_bytes) noexcept;

}  // namespace tbsvd::tune
