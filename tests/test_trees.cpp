// Reduction-tree plan validation: liveness/kind invariants for every tree,
// Greedy round-optimality, Auto domain sizing, hierarchical plans.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/alg_gen.hpp"
#include "core/ge2bnd.hpp"
#include "trees/hier_tree.hpp"
#include "trees/tree.hpp"

namespace tbsvd {
namespace {

// Simulates a plan: every non-pivot tile eliminated exactly once, pivots
// alive at use, TS pivots triangular & targets square, TT pivots & targets
// triangular. Returns the number of TT rounds on the critical chain of the
// pivot 0 (not used by all tests).
void check_plan_valid(const StepPlan& plan, int u) {
  std::vector<bool> alive(u, true), tri(u, false);
  std::set<int> prep_set(plan.prep.begin(), plan.prep.end());
  ASSERT_EQ(prep_set.size(), plan.prep.size()) << "duplicate prep";
  for (int i : plan.prep) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, u);
    tri[i] = true;
  }
  for (const Elim& e : plan.elims) {
    ASSERT_NE(e.piv, e.row);
    ASSERT_TRUE(alive[e.piv]) << "pivot " << e.piv << " already eliminated";
    ASSERT_TRUE(alive[e.row]) << "row " << e.row << " already eliminated";
    ASSERT_TRUE(tri[e.piv]) << "pivot " << e.piv << " not triangular";
    if (e.kind == ElimKind::TS) {
      ASSERT_FALSE(tri[e.row]) << "TS target must be a full square tile";
    } else {
      ASSERT_TRUE(tri[e.row]) << "TT target must be triangular";
    }
    alive[e.row] = false;
    tri[e.piv] = true;  // pivot stays triangular
  }
  // Exactly tile 0 survives.
  for (int i = 0; i < u; ++i) {
    EXPECT_EQ(alive[i], i == 0) << "liveness wrong for tile " << i;
  }
  EXPECT_TRUE(tri[0]) << "surviving pivot must be triangular";
  EXPECT_EQ(static_cast<int>(plan.elims.size()), u - 1);
}

class TreePlanP
    : public ::testing::TestWithParam<std::tuple<TreeKind, int>> {};

TEST_P(TreePlanP, PlanIsValid) {
  const auto [kind, u] = GetParam();
  AutoConfig ac;
  ac.ncores = 4;
  ac.gamma = 2.0;
  ac.ntrail = 3;
  StepPlan plan = make_step_plan(kind, u, &ac);
  check_plan_valid(plan, u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, TreePlanP,
    ::testing::Combine(::testing::Values(TreeKind::FlatTS, TreeKind::FlatTT,
                                         TreeKind::Greedy, TreeKind::Auto),
                       ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 27, 64,
                                         100)));

TEST(TreePlans, FlatTsShape) {
  StepPlan p = make_step_plan(TreeKind::FlatTS, 6);
  ASSERT_EQ(p.prep.size(), 1u);
  EXPECT_EQ(p.prep[0], 0);
  ASSERT_EQ(p.elims.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.elims[i].piv, 0);
    EXPECT_EQ(p.elims[i].row, i + 1);
    EXPECT_EQ(p.elims[i].kind, ElimKind::TS);
  }
}

TEST(TreePlans, FlatTtShape) {
  StepPlan p = make_step_plan(TreeKind::FlatTT, 5);
  EXPECT_EQ(p.prep.size(), 5u);
  for (const auto& e : p.elims) {
    EXPECT_EQ(e.piv, 0);
    EXPECT_EQ(e.kind, ElimKind::TT);
  }
}

TEST(TreePlans, GreedyRoundCountIsLog2) {
  for (int u : {2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 100}) {
    StepPlan p = make_step_plan(TreeKind::Greedy, u);
    // Depth of the elimination chain ending at tile 0 is the number of
    // rounds; for a binomial tree it must be ceil(log2 u).
    std::vector<int> depth(u, 0);
    int maxd = 0;
    for (const auto& e : p.elims) {
      const int d = std::max(depth[e.piv], depth[e.row]) + 1;
      depth[e.piv] = d;
      maxd = std::max(maxd, d);
    }
    EXPECT_EQ(maxd, binomial_rounds(u)) << "u=" << u;
  }
}

TEST(TreePlans, BinomialRounds) {
  EXPECT_EQ(binomial_rounds(1), 0);
  EXPECT_EQ(binomial_rounds(2), 1);
  EXPECT_EQ(binomial_rounds(3), 2);
  EXPECT_EQ(binomial_rounds(4), 2);
  EXPECT_EQ(binomial_rounds(5), 3);
  EXPECT_EQ(binomial_rounds(8), 3);
  EXPECT_EQ(binomial_rounds(9), 4);
}

TEST(AutoTree, DomainSizeRespectsParallelismTarget) {
  AutoConfig ac;
  ac.ncores = 8;
  ac.gamma = 2.0;
  ac.ntrail = 4;
  // target = 16 ready tasks; with ntrail=4 we need >= 4 heads.
  const int u = 64;
  const int a = auto_domain_size(u, ac);
  const int heads = (u + a - 1) / a;
  EXPECT_GE(heads * ac.ntrail, 16);
  // And a is maximal: a+1 would violate (or a == u already).
  if (a < u) {
    const int heads2 = (u + a) / (a + 1);
    EXPECT_LT(heads2 * ac.ntrail, 16);
  }
}

TEST(AutoTree, FewResourcesGiveFlatTs) {
  // One core: any parallelism target <= ntrail is met by a single domain.
  AutoConfig ac;
  ac.ncores = 1;
  ac.gamma = 1.0;
  ac.ntrail = 10;
  EXPECT_EQ(auto_domain_size(40, ac), 40);  // degenerates to FlatTS
}

TEST(AutoTree, ManyCoresGiveGreedy) {
  AutoConfig ac;
  ac.ncores = 1024;
  ac.gamma = 2.0;
  ac.ntrail = 1;
  EXPECT_EQ(auto_domain_size(40, ac), 1);  // degenerates to Greedy
}

TEST(AutoTree, DefaultRbidiagOnTallGridUsesTsKernels) {
  // GE2BND's default trees are Auto sized by host_cores(): on a grid with
  // more than 4 * host_cores() tile rows the first QR panel meets the
  // 2 * host_cores() target with domains of >= 2 tiles, so R-BIDIAG
  // eliminates inside them with TSQRT/TSMQR.
  const int p = 4 * host_cores() + 8, q = 2;
  const std::vector<TileOp> ops =
      build_rbidiag_ops(p, q, ge2bnd_config(Ge2bndOptions{}));
  int tsqrt = 0, tsmqr = 0;
  for (const TileOp& t : ops) {
    tsqrt += t.op == Op::TSQRT;
    tsmqr += t.op == Op::TSMQR;
  }
  EXPECT_GT(tsqrt, 0);
  EXPECT_GT(tsmqr, 0);
}

TEST(AutoTree, DomainPlanMatchesExtremes) {
  // a = u must equal FlatTS; a = 1 must equal Greedy.
  const int u = 17;
  StepPlan ts = make_step_plan(TreeKind::FlatTS, u);
  StepPlan d_u = make_domain_plan(u, u);
  ASSERT_EQ(d_u.elims.size(), ts.elims.size());
  for (size_t i = 0; i < ts.elims.size(); ++i) {
    EXPECT_EQ(d_u.elims[i].piv, ts.elims[i].piv);
    EXPECT_EQ(d_u.elims[i].row, ts.elims[i].row);
    EXPECT_EQ(d_u.elims[i].kind, ts.elims[i].kind);
  }
  StepPlan gr = make_step_plan(TreeKind::Greedy, u);
  StepPlan d_1 = make_domain_plan(u, 1);
  ASSERT_EQ(d_1.elims.size(), gr.elims.size());
  for (size_t i = 0; i < gr.elims.size(); ++i) {
    EXPECT_EQ(d_1.elims[i].piv, gr.elims[i].piv);
    EXPECT_EQ(d_1.elims[i].row, gr.elims[i].row);
    EXPECT_EQ(d_1.elims[i].kind, gr.elims[i].kind);
  }
}

class HierPlanP : public ::testing::TestWithParam<
                      std::tuple<int, int, int, bool, TreeKind>> {};

TEST_P(HierPlanP, PlanIsValid) {
  const auto [u, offset, grid, top_greedy, local] = GetParam();
  HierConfig hc;
  hc.grid_dim = grid;
  hc.top_greedy = top_greedy;
  hc.local = local;
  hc.auto_cfg.ncores = 4;
  hc.auto_cfg.ntrail = 2;
  StepPlan plan = make_hier_plan(u, offset, hc);
  check_plan_valid(plan, u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, HierPlanP,
    ::testing::Combine(::testing::Values(1, 2, 5, 16, 33),
                       ::testing::Values(0, 1, 3),
                       ::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Bool(),
                       ::testing::Values(TreeKind::FlatTS, TreeKind::Greedy,
                                         TreeKind::Auto)));

TEST(HierPlan, CrossNodeElimsAreTT) {
  // With FlatTS local trees, TS eliminations must stay within one node:
  // every TS pair must have the same block-cyclic owner.
  const int u = 12, offset = 2, R = 3;
  HierConfig hc;
  hc.grid_dim = R;
  hc.local = TreeKind::FlatTS;
  hc.top_greedy = false;
  StepPlan plan = make_hier_plan(u, offset, hc);
  for (const auto& e : plan.elims) {
    if (e.kind == ElimKind::TS) {
      EXPECT_EQ((offset + e.piv) % R, (offset + e.row) % R)
          << "TS elimination crossing node boundary";
    } else {
      EXPECT_NE((offset + e.piv) % R, (offset + e.row) % R)
          << "top-level TT elimination within one node";
    }
  }
}

}  // namespace
}  // namespace tbsvd
