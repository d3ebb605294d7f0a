// Calibration-file and autotuner tier (ISSUE 9): round-trip save/load,
// typed rejection of corrupt/truncated/version-mismatched files, the
// flagged (never silent) host-mismatch and fallback contracts, the
// active-calibration resolution helpers behind the 0-sentinel option
// defaults, and the measured-weight crossover identity between a persisted
// file and an in-process table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/alg_gen.hpp"
#include "core/svd.hpp"
#include "core/tile_ops.hpp"
#include "cp/crossover.hpp"
#include "cp/dag_analysis.hpp"
#include "cp/dist_sim.hpp"
#include "test_harness.hpp"
#include "tune/calibrate.hpp"
#include "tune/tune.hpp"

namespace tbsvd {
namespace {

tune::Calibration sample_calibration() {
  tune::Calibration c;
  c.host = tune::host_fingerprint();
  const char* dtypes[] = {"f64", "f32"};
  for (const char* dt : dtypes) {
    tune::PrecisionCalib p;
    p.dtype = dt;
    p.nb = dt[1] == '6' ? 96 : 128;
    p.ib = 24;
    p.gemm_gflops = 10.0;
    p.e2e_gflops = 2.5;
    for (int op = 0; op <= static_cast<int>(Op::LASET); ++op) {
      p.kernel_seconds[static_cast<Op>(op)] = 1e-5 * (op + 1);
    }
    c.precisions.push_back(p);
  }
  return c;
}

std::string temp_path(const char* name) {
  // TempDir() is typically just /tmp/; prefix so a concurrently running
  // tbsvd_tune writing a real calibration can never collide with us.
  return ::testing::TempDir() + "tbsvd_test_" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
}

// Pins the environment to a known no-calibration state (an empty cache dir,
// no TBSVD_TUNE_FILE) and restores whatever the process had afterwards, so
// these tests pass both in a clean checkout and in the CI step that runs
// the whole suite under an exported TBSVD_TUNE_FILE.
class TuneEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    save("TBSVD_TUNE_FILE");
    save("XDG_CACHE_HOME");
    ::unsetenv("TBSVD_TUNE_FILE");
    ::setenv("XDG_CACHE_HOME", (::testing::TempDir() + "tune_empty").c_str(),
             1);
    tune::reset_active();
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.second) {
        ::setenv(name.c_str(), value.first.c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
    tune::reset_active();
  }

 private:
  void save(const char* name) {
    const char* v = std::getenv(name);
    saved_.emplace_back(name,
                        std::make_pair(v != nullptr ? v : "", v != nullptr));
  }
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> saved_;
};

TEST_F(TuneEnv, RoundTripPreservesEveryField) {
  const tune::Calibration c = sample_calibration();
  const std::string path = temp_path("tune_roundtrip.json");
  tune::save_calibration(path, c);
  tune::TuneLoadInfo info;
  const tune::Calibration r = tune::load_calibration(path, &info);
  EXPECT_EQ(info.status, Status::Ok);
  EXPECT_FALSE(info.host_mismatch);
  EXPECT_EQ(r.version, tune::kTuneFileVersion);
  EXPECT_EQ(r.host, c.host);
  ASSERT_EQ(r.precisions.size(), c.precisions.size());
  for (std::size_t i = 0; i < c.precisions.size(); ++i) {
    const tune::PrecisionCalib& a = c.precisions[i];
    const tune::PrecisionCalib& b = r.precisions[i];
    EXPECT_EQ(b.dtype, a.dtype);
    EXPECT_EQ(b.nb, a.nb);
    EXPECT_EQ(b.ib, a.ib);
    EXPECT_NEAR(b.gemm_gflops, a.gemm_gflops, 1e-3);
    ASSERT_EQ(b.kernel_seconds.size(), a.kernel_seconds.size());
    for (const auto& [op, secs] : a.kernel_seconds) {
      EXPECT_NEAR(b.kernel_seconds.at(op), secs, 1e-12 + 1e-9 * secs);
    }
  }
}

TEST_F(TuneEnv, SaveCreatesTheDefaultCacheDirectory) {
  // XDG_CACHE_HOME points at a directory that does not exist yet; the
  // default-path save must create the parents rather than fail. Remove the
  // file afterwards — TempDir is shared across tests and a calibration left
  // at the default path would leak into every later lazy load.
  const std::string path = tune::default_tune_path();
  ASSERT_FALSE(path.empty());
  tune::save_calibration(path, sample_calibration());
  const tune::Calibration r = tune::load_calibration(path);
  EXPECT_EQ(r.precisions.size(), 2u);
  ::remove(path.c_str());
}

TEST_F(TuneEnv, CorruptFileThrowsTyped) {
  EXPECT_THROW((void)tune::parse_calibration("not json at all"),
               invalid_argument_error);
  EXPECT_THROW((void)tune::parse_calibration("{\"tbsvd_tune_version\": 1}"),
               invalid_argument_error);
  EXPECT_THROW((void)tune::parse_calibration(""), invalid_argument_error);
}

TEST_F(TuneEnv, TruncatedFileThrowsTyped) {
  const std::string text =
      tune::serialize_calibration(sample_calibration());
  for (const std::size_t keep :
       {text.size() / 4, text.size() / 2, text.size() - 2}) {
    EXPECT_THROW((void)tune::parse_calibration(text.substr(0, keep)),
                 invalid_argument_error)
        << "truncated at " << keep << " of " << text.size();
  }
}

TEST_F(TuneEnv, VersionMismatchThrowsTyped) {
  tune::Calibration c = sample_calibration();
  c.version = tune::kTuneFileVersion + 1;
  const std::string text = tune::serialize_calibration(c);
  try {
    (void)tune::parse_calibration(text);
    FAIL() << "version mismatch was accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(TuneEnv, IncompleteKernelTableThrowsTyped) {
  tune::Calibration c = sample_calibration();
  c.precisions[0].kernel_seconds.erase(Op::TTMQR);
  EXPECT_THROW((void)tune::parse_calibration(tune::serialize_calibration(c)),
               invalid_argument_error);
}

// Version-1 files written while the schema still carried the batched
// direct-SVD cutoff keep loading: the parser ignores the retired key.
TEST_F(TuneEnv, VersionOneFileWithRetiredCutoffKeyLoads) {
  std::string text = "{\n  \"tbsvd_tune_version\": 1,\n  \"host\": \"" +
                     tune::host_fingerprint() +
                     "\",\n  \"precisions\": [\n"
                     "    {\"dtype\": \"f64\", \"nb\": 96, \"ib\": 24, "
                     "\"direct_max_cols\": 64,\n"
                     "     \"gemm_gflops\": 10.000, \"e2e_gflops\": 2.500,\n"
                     "     \"kernel_seconds\": {";
  for (int op = 0; op <= static_cast<int>(Op::LASET); ++op) {
    text += std::string(op == 0 ? "" : ", ") + "\"" +
            op_name(static_cast<Op>(op)) + "\": 1.0e-05";
  }
  text += "}}\n  ]\n}\n";
  tune::TuneLoadInfo info;
  const tune::Calibration c = tune::parse_calibration(text, &info);
  EXPECT_EQ(info.status, Status::Ok);
  EXPECT_EQ(c.version, 1);
  ASSERT_EQ(c.precisions.size(), 1u);
  EXPECT_EQ(c.precisions[0].dtype, "f64");
  EXPECT_EQ(c.precisions[0].nb, 96);
  EXPECT_EQ(c.precisions[0].ib, 24);
  EXPECT_EQ(c.precisions[0].kernel_seconds.size(),
            static_cast<std::size_t>(Op::LASET) + 1);
}

TEST_F(TuneEnv, HostMismatchIsFlaggedWithInfoAndThrowsWithout) {
  tune::Calibration c = sample_calibration();
  c.host = "some-other-machine";
  const std::string text = tune::serialize_calibration(c);
  // With an info out-param: usable, but flagged — never silent.
  tune::TuneLoadInfo info;
  const tune::Calibration r = tune::parse_calibration(text, &info);
  EXPECT_TRUE(info.host_mismatch);
  EXPECT_EQ(info.status, Status::Degraded);
  EXPECT_TRUE(info.ok());
  EXPECT_EQ(r.precisions.size(), 2u);
  // Without one there is no flag channel, so acceptance must be refused.
  EXPECT_THROW((void)tune::parse_calibration(text), invalid_argument_error);
}

TEST_F(TuneEnv, MissingFileThrowsTyped) {
  EXPECT_THROW((void)tune::load_calibration(temp_path("no_such_tune.json")),
               invalid_argument_error);
}

TEST_F(TuneEnv, ResolutionFallsBackToHistoricalConstantsWithoutCalibration) {
  EXPECT_EQ(tune::active(), nullptr);
  EXPECT_EQ(tune::resolved_nb(0, sizeof(double), 64), 64);
  EXPECT_EQ(tune::resolved_ib(0, sizeof(double), 32), 32);
  EXPECT_EQ(tune::resolved_direct_max_cols(0, sizeof(double), 48), 48);
  EXPECT_FALSE(static_cast<bool>(tune::active_op_cost(sizeof(double))));
  DistSimParams p;
  EXPECT_EQ(p.resolved_nb(), 160);
}

TEST_F(TuneEnv, ActiveCalibrationDrivesResolutionAndExplicitWins) {
  tune::set_active(sample_calibration());
  ASSERT_NE(tune::active(), nullptr);
  // f64 table: nb=96, ib=24; f32 table: nb=128.
  EXPECT_EQ(tune::resolved_nb(0, sizeof(double), 64), 96);
  EXPECT_EQ(tune::resolved_nb(0, sizeof(float), 64), 128);
  EXPECT_EQ(tune::resolved_ib(0, sizeof(double), 32), 24);
  // Explicit (> 0) requests are never overridden by the calibration.
  EXPECT_EQ(tune::resolved_nb(160, sizeof(double), 64), 160);
  EXPECT_EQ(tune::resolved_ib(8, sizeof(double), 32), 8);
  DistSimParams p;
  EXPECT_EQ(p.resolved_nb(), 96);
  p.nb = 160;
  EXPECT_EQ(p.resolved_nb(), 160);
  const OpCost cost = tune::active_op_cost(sizeof(double));
  ASSERT_TRUE(static_cast<bool>(cost));
  EXPECT_GT(cost(TileOp{Op::GEQRT, 0, -1, 0, -1, 0}), 0.0);
}

TEST_F(TuneEnv, EnvPointedFileLoadsLazilyAndReArmsOnReset) {
  const std::string path = temp_path("tune_env.json");
  tune::save_calibration(path, sample_calibration());
  ::setenv("TBSVD_TUNE_FILE", path.c_str(), 1);
  tune::reset_active();
  ASSERT_NE(tune::active(), nullptr);
  EXPECT_EQ(tune::active_load_info().status, Status::Ok);
  EXPECT_EQ(tune::resolved_nb(0, sizeof(double), 64), 96);
  // Dropping the env and resetting re-arms the lazy load to "none".
  ::unsetenv("TBSVD_TUNE_FILE");
  tune::reset_active();
  EXPECT_EQ(tune::active(), nullptr);
  EXPECT_EQ(tune::resolved_nb(0, sizeof(double), 64), 64);
}

TEST_F(TuneEnv, ImplicitLoadFailureIsRecordedNeverSilent) {
  const std::string path = temp_path("tune_corrupt.json");
  write_text(path, "{\"tbsvd_tune_version\": 1, garbage");
  ::setenv("TBSVD_TUNE_FILE", path.c_str(), 1);
  tune::reset_active();
  EXPECT_EQ(tune::active(), nullptr);  // fallback to built-in defaults ...
  const tune::TuneLoadInfo& info = tune::active_load_info();
  EXPECT_EQ(info.status, Status::InvalidArgument);  // ... but flagged
  EXPECT_FALSE(info.message.empty());
  EXPECT_EQ(info.path, path);
}

TEST_F(TuneEnv, DefaultOptionsMatchHistoricalConstantsWithoutCalibration) {
  // GesvdOptions{} must resolve to the pre-autotuner nb=64/ib=32 behavior
  // bit-exactly when no calibration is present.
  const Matrix A = test::random_matrix(96, 80, 11);
  GesvdOptions defaults;  // nb = 0, ib = 0
  GesvdOptions legacy;
  legacy.nb = 64;
  legacy.ge2bnd.ib = 32;
  const auto sv_default = gesvd_values(A.cview(), defaults);
  const auto sv_legacy = gesvd_values(A.cview(), legacy);
  ASSERT_EQ(sv_default.size(), sv_legacy.size());
  for (std::size_t i = 0; i < sv_default.size(); ++i) {
    EXPECT_EQ(sv_default[i], sv_legacy[i]) << "sv " << i;
  }
}

TEST_F(TuneEnv, TunedDefaultsProduceCorrectSpectrum) {
  // With an active calibration, the 0-sentinel defaults switch to tuned
  // nb/ib and weighted CP priorities; the spectrum must not move.
  const Matrix A = test::random_matrix(96, 80, 12);
  const auto ref = gesvd_values(A.cview(), GesvdOptions{});
  tune::Calibration c = sample_calibration();
  c.precisions[0].nb = 32;  // small enough to exercise a real tile grid
  c.precisions[0].ib = 8;
  tune::set_active(c);
  const auto sv = gesvd_values(A.cview(), GesvdOptions{});
  ASSERT_EQ(sv.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(sv[i], ref[i], 1e-10 * (1.0 + ref[0])) << "sv " << i;
  }
}

TEST_F(TuneEnv, PersistedWeightsReproduceInProcessCrossover) {
  // The acceptance identity: find_crossover under op_cost(parsed file)
  // must equal find_crossover under the same in-memory table.
  std::map<Op, double> table;
  for (int op = 0; op <= static_cast<int>(Op::LASET); ++op) {
    table[static_cast<Op>(op)] = 1e-6;
  }
  table[Op::GEQRT] = table[Op::GELQT] = 4.0e-3;
  table[Op::UNMQR] = table[Op::UNMLQ] = 3.4e-3;
  table[Op::TSQRT] = table[Op::TSLQT] = 4.9e-3;
  table[Op::TSMQR] = table[Op::TSMLQ] = 4.0e-3;
  table[Op::TTQRT] = table[Op::TTLQT] = 2.4e-3;
  table[Op::TTMQR] = table[Op::TTMLQ] = 3.1e-3;
  tune::Calibration c = sample_calibration();
  c.precisions[0].kernel_seconds = table;
  const std::string path = temp_path("tune_weights.json");
  tune::save_calibration(path, c);
  const tune::Calibration loaded = tune::load_calibration(path);
  const OpCost from_file = tune::op_cost(loaded, sizeof(double));
  const OpCost in_process = tune::measured_cost(table);
  for (int q : {2, 3, 4}) {
    const auto a = find_crossover(TreeKind::Greedy, q, 0, from_file);
    const auto b = find_crossover(TreeKind::Greedy, q, 0, in_process);
    EXPECT_EQ(a.p_switch, b.p_switch) << "q = " << q;
    EXPECT_DOUBLE_EQ(a.delta_s, b.delta_s) << "q = " << q;
  }
}

TEST_F(TuneEnv, CpPrioritiesRankCriticalPathFirst) {
  AlgConfig cfg;
  const auto ops = build_bidiag_ops(4, 3, cfg);
  const auto prio = tune::op_cost(sample_calibration(), sizeof(double));
  const std::vector<int> ranks = cp_priorities(ops, prio);
  ASSERT_EQ(ranks.size(), ops.size());
  // The first panel starts every chain, so it carries the maximal rank;
  // the final op ends one, so it carries the minimal positive rank.
  const int max_rank = *std::max_element(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks.front(), max_rank);
  EXPECT_EQ(max_rank, 1 << 20);
  EXPECT_LE(ranks.back(), ranks.front());
  for (const int r : ranks) EXPECT_GE(r, 0);
}

TEST_F(TuneEnv, AutotuneSmokeProducesACompleteCalibration) {
  tune::TuneOptions o;
  o.nbs = {8, 16};
  o.ibs = {4};
  o.reps = 1;
  o.e2e_target = 32;
  const tune::Calibration c = tune::autotune(o);
  EXPECT_EQ(c.host, tune::host_fingerprint());
  ASSERT_EQ(c.precisions.size(), 2u);
  for (const tune::PrecisionCalib& p : c.precisions) {
    EXPECT_TRUE(p.nb == 8 || p.nb == 16) << p.dtype;
    EXPECT_EQ(p.ib, 4);
    EXPECT_GT(p.gemm_gflops, 0.0);
    EXPECT_GT(p.e2e_gflops, 0.0);
    EXPECT_EQ(p.kernel_seconds.size(),
              static_cast<std::size_t>(Op::LASET) + 1);
    for (const auto& [op, secs] : p.kernel_seconds) {
      EXPECT_GT(secs, 0.0) << op_name(op);
    }
  }
  // The result survives its own round trip.
  const std::string path = temp_path("tune_smoke.json");
  tune::save_calibration(path, c);
  EXPECT_EQ(tune::load_calibration(path).precisions.size(), 2u);
}

}  // namespace
}  // namespace tbsvd
