// Reduction trees for one panel step (Section III of the paper).
//
// A step works on u tiles (local indices 0..u-1; 0 is the pivot that
// survives). A StepPlan lists which tiles must be triangularized up front
// (GEQRT/GELQT "prep") and the ordered eliminations, each either
//   TS: zero a full square tile against a triangular pivot (TSQRT), or
//   TT: zero a triangular tile against a triangular pivot (TTQRT).
//
// Trees provided (paper Section III & V):
//   FlatTS  — prep {0}; sequential TS chain into the pivot.
//   FlatTT  — prep all; sequential TT chain into the pivot.
//   Greedy  — prep all; binomial TT tree (min #rounds = ceil(log2 u)).
//   Auto    — FlatTS domains of size `a` whose heads are combined by a
//             binomial TT tree; `a` adapts to expose >= gamma * ncores
//             parallel tasks (Section V).
#pragma once

#include <vector>

namespace tbsvd {

enum class TreeKind { FlatTS, FlatTT, Greedy, Auto };

[[nodiscard]] const char* tree_name(TreeKind k) noexcept;

/// Inverse of tree_name (case-insensitive): parses "flatts" / "flattt" /
/// "greedy" / "auto" into `out` and returns true, false on anything else.
/// Benches and examples use it for --tree flags; it never throws.
[[nodiscard]] bool tree_from_name(const char* name, TreeKind& out) noexcept;

enum class ElimKind { TS, TT };

/// One elimination: tile `row` is zeroed against pivot tile `piv`
/// (local indices within the step).
struct Elim {
  int piv;
  int row;
  ElimKind kind;
};

/// Plan for one panel step over u tiles.
struct StepPlan {
  std::vector<int> prep;    ///< tiles to triangularize (GEQRT) first
  std::vector<Elim> elims;  ///< eliminations, in a dependency-valid order
};

/// Core count the drivers (ge2bnd, tsqr) size the Auto tree for:
/// std::thread::hardware_concurrency(), clamped to >= 1. It is a property
/// of the host, not of a call's thread count, so the op stream — and with
/// it every bit of the result — is the same for any nthreads.
[[nodiscard]] int host_cores() noexcept;

/// Parameters consumed by the Auto tree.
struct AutoConfig {
  int ncores = 1;
  double gamma = 2.0;  ///< parallelism target multiplier (paper uses 2)
  int ntrail = 1;      ///< trailing tile-columns updated by this step
};

/// Domain size `a` chosen by the Auto tree for a panel of u tiles:
/// the largest a such that ceil(u/a) * max(ntrail,1) >= gamma * ncores
/// (falling back to a = 1 when even full splitting cannot reach the
/// target parallelism).
[[nodiscard]] int auto_domain_size(int u, const AutoConfig& cfg) noexcept;

/// Build the plan for one step over u >= 1 tiles. `auto_cfg` is required
/// for TreeKind::Auto and ignored otherwise.
[[nodiscard]] StepPlan make_step_plan(TreeKind kind, int u,
                                      const AutoConfig* auto_cfg = nullptr);

/// Plan with explicit FlatTS domains of size `a` glued by a binomial TT
/// tree (the Auto building block; a = 1 degenerates to Greedy, a = u to
/// FlatTS).
[[nodiscard]] StepPlan make_domain_plan(int u, int a);

/// Number of TT rounds a binomial tree needs for h heads.
[[nodiscard]] int binomial_rounds(int h) noexcept;

}  // namespace tbsvd
