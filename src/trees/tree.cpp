#include "trees/tree.hpp"

#include <algorithm>
#include <thread>

#include "common/check.hpp"

namespace tbsvd {

const char* tree_name(TreeKind k) noexcept {
  switch (k) {
    case TreeKind::FlatTS: return "FlatTS";
    case TreeKind::FlatTT: return "FlatTT";
    case TreeKind::Greedy: return "Greedy";
    case TreeKind::Auto: return "Auto";
  }
  return "?";
}

bool tree_from_name(const char* name, TreeKind& out) noexcept {
  if (name == nullptr) return false;
  auto eq = [name](const char* want) {
    const char* a = name;
    const char* b = want;
    for (; *a != '\0' && *b != '\0'; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? *a - 'A' + 'a' : *a;
      const char cb = (*b >= 'A' && *b <= 'Z') ? *b - 'A' + 'a' : *b;
      if (ca != cb) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq("flatts")) { out = TreeKind::FlatTS; return true; }
  if (eq("flattt")) { out = TreeKind::FlatTT; return true; }
  if (eq("greedy")) { out = TreeKind::Greedy; return true; }
  if (eq("auto"))   { out = TreeKind::Auto;   return true; }
  return false;
}

int binomial_rounds(int h) noexcept {
  int r = 0;
  int span = 1;
  while (span < h) {
    span <<= 1;
    ++r;
  }
  return r;
}

namespace {

// Binomial TT reduction over the given head tiles (already triangular),
// reducing everything into heads[0]. Appends eliminations round by round;
// pairs within a round touch disjoint tiles, so they can run in parallel.
void append_binomial(const std::vector<int>& heads, std::vector<Elim>& out) {
  const int h = static_cast<int>(heads.size());
  for (int d = 1; d < h; d <<= 1) {
    for (int i = 0; i + d < h; i += 2 * d) {
      out.push_back(Elim{heads[i], heads[i + d], ElimKind::TT});
    }
  }
}

}  // namespace

StepPlan make_domain_plan(int u, int a) {
  TBSVD_CHECK(u >= 1 && a >= 1, "domain plan needs u >= 1, a >= 1");
  StepPlan plan;
  std::vector<int> heads;
  for (int h0 = 0; h0 < u; h0 += a) {
    heads.push_back(h0);
    plan.prep.push_back(h0);
    // FlatTS chain inside the domain.
    for (int i = h0 + 1; i < std::min(h0 + a, u); ++i) {
      plan.elims.push_back(Elim{h0, i, ElimKind::TS});
    }
  }
  append_binomial(heads, plan.elims);
  return plan;
}

int host_cores() noexcept {
  // Read once per process: every solve in it then sizes Auto alike.
  static const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return cores;
}

int auto_domain_size(int u, const AutoConfig& cfg) noexcept {
  const double target =
      cfg.gamma * static_cast<double>(std::max(cfg.ncores, 1));
  const double ntrail = static_cast<double>(std::max(cfg.ntrail, 1));
  for (int a = u; a >= 2; --a) {
    const double heads = static_cast<double>((u + a - 1) / a);
    if (heads * ntrail >= target) return a;
  }
  return 1;
}

StepPlan make_step_plan(TreeKind kind, int u, const AutoConfig* auto_cfg) {
  TBSVD_CHECK(u >= 1, "step plan needs at least one tile");
  StepPlan plan;
  switch (kind) {
    case TreeKind::FlatTS:
      plan.prep.push_back(0);
      for (int i = 1; i < u; ++i)
        plan.elims.push_back(Elim{0, i, ElimKind::TS});
      break;
    case TreeKind::FlatTT:
      for (int i = 0; i < u; ++i) plan.prep.push_back(i);
      for (int i = 1; i < u; ++i)
        plan.elims.push_back(Elim{0, i, ElimKind::TT});
      break;
    case TreeKind::Greedy: {
      for (int i = 0; i < u; ++i) plan.prep.push_back(i);
      std::vector<int> heads(u);
      for (int i = 0; i < u; ++i) heads[i] = i;
      append_binomial(heads, plan.elims);
      break;
    }
    case TreeKind::Auto: {
      TBSVD_CHECK(auto_cfg != nullptr, "Auto tree requires an AutoConfig");
      plan = make_domain_plan(u, auto_domain_size(u, *auto_cfg));
      break;
    }
  }
  return plan;
}

}  // namespace tbsvd
