// Deterministic fault injection for robustness testing.
//
// Production code marks named injection sites with TBSVD_FAULT_FIRE("..."):
// a single relaxed load of a global flag when nothing is armed (the flag is
// false in normal operation, so the disabled cost is one predictable
// branch), and a hit-counted match against the armed site otherwise. Tests
// arm exactly one site at a time (fault::Scoped) and the site fires on its
// N-th dynamic hit, so a failure reproduces from (site, trigger_hit) alone
// — no randomness, no timing dependence.
//
// The catalogue of sites lives in fault::all_sites(); the sweep tier
// (tests/test_fault_injection.cpp) iterates it and asserts every fault
// yields success, a flagged degraded result, or a typed error — never
// silent garbage. What each site injects is decided at the call site
// (poison a tile with NaN, throw bad_alloc at a workspace growth, force a
// BD2VAL stall, fail a scheduled task). See docs/ROBUSTNESS.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

namespace tbsvd::fault {

namespace detail {
extern std::atomic<bool> g_armed;
bool check_slow(const char* site) noexcept;
}  // namespace detail

/// All named injection sites compiled into the library (for sweep tests).
[[nodiscard]] const std::vector<const char*>& all_sites();

/// Arm `site` to fire on its trigger_hit-th dynamic hit (1-based). Only one
/// site may be armed at a time; re-arming replaces the previous fault.
void arm(const char* site, long long trigger_hit = 1);

/// Disarm any armed fault and reset the hit/fired counters.
void disarm() noexcept;

/// Times the armed site was reached since arm().
[[nodiscard]] long long hits() noexcept;

/// True once the armed fault has fired at least once.
[[nodiscard]] bool fired() noexcept;

/// RAII arm/disarm for tests.
class Scoped {
 public:
  explicit Scoped(const char* site, long long trigger_hit = 1) {
    arm(site, trigger_hit);
  }
  ~Scoped() { disarm(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

/// True when the named site should inject its fault right now.
inline bool should_fire(const char* site) noexcept {
  if (!detail::g_armed.load(std::memory_order_relaxed)) return false;
  return detail::check_slow(site);
}

}  // namespace tbsvd::fault

#define TBSVD_FAULT_FIRE(site) (::tbsvd::fault::should_fire(site))
