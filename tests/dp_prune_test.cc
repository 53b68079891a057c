// The dominance-pruned DP search: grid discretization round-trips, memo
// table determinism (ties keep the first-inserted entry), strict-domination
// pruning, and the headline property — bit-exact agreement with the
// brute-force grid walk (grid_oracle.h) on the same grid, including QoS
// verdicts, on synthetic and on calibrated what-if estimates.
#include "search/dp_prune_strategy.h"

#include <gtest/gtest.h>

#include <vector>

#include "advisor/advisor.h"
#include "advisor/cost_estimator.h"
#include "advisor/search_strategy.h"
#include "grid_oracle.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "workload/tpch.h"

namespace vdba::search {
namespace {

using advisor::CostEstimator;
using advisor::EnumerationResult;
using advisor::MakeSearchStrategy;
using advisor::QosSpec;
using advisor::SearchSpec;
using simvm::ResourceVector;

/// Closed-form two-dimensional estimator (same shape as the strategy
/// suite's): Cost_i(R) = alpha_cpu[i]/cpu + alpha_mem[i]/mem + beta[i].
class SyntheticEstimator : public CostEstimator {
 public:
  SyntheticEstimator(std::vector<double> alpha_cpu,
                     std::vector<double> alpha_mem, std::vector<double> beta)
      : alpha_cpu_(std::move(alpha_cpu)),
        alpha_mem_(std::move(alpha_mem)),
        beta_(std::move(beta)) {}

  double EstimateSeconds(int tenant, const ResourceVector& r) override {
    size_t i = static_cast<size_t>(tenant);
    return alpha_cpu_[i] / r.cpu_share() + alpha_mem_[i] / r.mem_share() +
           beta_[i];
  }
  int num_tenants() const override {
    return static_cast<int>(alpha_cpu_.size());
  }
  int num_dims() const override { return 2; }

 private:
  std::vector<double> alpha_cpu_, alpha_mem_, beta_;
};

TEST(BudgetGridTest, StepsForRoundTripsEveryRung) {
  BudgetGrid grid(0.05, 0.05);
  ASSERT_GT(grid.size(), 0);
  for (int k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(grid.StepsFor(grid.ShareFor(k)), k) << k;
  }
  // Accumulating 0.05 in steps of 0.05 reaches 1.0000000000000002, which
  // passes the ladder's 1 + 1e-9 bound; the top rung must be a valid
  // share, exactly 1.0.
  EXPECT_EQ(grid.ShareFor(grid.size() - 1), 1.0);
}

TEST(BudgetGridTest, OffLadderSharesHaveNoRung) {
  BudgetGrid grid(0.05, 0.05);
  EXPECT_EQ(grid.StepsFor(0.07), -1);
  EXPECT_EQ(grid.StepsFor(0.0), -1);
  EXPECT_EQ(grid.StepsFor(1.5), -1);
}

TEST(BudgetGridTest, MaxStepsMatchesTheExhaustiveBound) {
  BudgetGrid grid(0.05, 0.05);
  // Nothing consumed, one more tenant after this one: the next share may
  // reach 1 - min_share = 0.95, i.e. 18 extra steps above the floor.
  EXPECT_EQ(grid.MaxSteps(0.0, 2), 18);
  // Last tenant with 0.95 already consumed: only the floor fits.
  EXPECT_EQ(grid.MaxSteps(0.95, 1), 0);
  // Budget exhausted: even the floor does not fit.
  EXPECT_EQ(grid.MaxSteps(1.0, 1), -1);
  // Used() is the linear prefix accounting the bound consumes.
  EXPECT_NEAR(grid.Used(3, 4), 3 * 0.05 + 4 * 0.05, 1e-12);
}

/// Grid order stub: entries compare by their `option` field, so tests can
/// dictate order without building real allocations.
DpMemoTable::GridOrder OrderByOption() {
  return [](const DpEntry& a, const DpEntry& b) {
    if (a.option < b.option) return -1;
    if (a.option > b.option) return 1;
    return 0;
  };
}

TEST(DpMemoTableTest, FullTieKeepsTheFirstInsertedEntry) {
  DpMemoTable table(2, OrderByOption());
  DpEntry first;
  first.cost = 3.0;
  first.steps = {1, 2, 0, 0};
  first.parent = 7;
  first.option = 5;
  EXPECT_TRUE(table.Insert(first));

  DpEntry tie = first;  // equal cost, equal residuals, equal grid order
  tie.parent = 9;
  EXPECT_FALSE(table.Insert(tie));
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].parent, 7);  // determinism: first wins
}

TEST(DpMemoTableTest, SameKeyReplacedOnlyByCheaperOrGridEarlier) {
  DpMemoTable table(2, OrderByOption());
  DpEntry e;
  e.cost = 3.0;
  e.steps = {1, 2, 0, 0};
  e.option = 5;
  table.Insert(e);

  DpEntry worse = e;
  worse.cost = 4.0;
  worse.option = 1;  // grid-earlier but costlier: incumbent stays
  EXPECT_FALSE(table.Insert(worse));
  EXPECT_EQ(table.entries()[0].cost, 3.0);

  DpEntry earlier = e;
  earlier.option = 1;  // cost-tied, grid-earlier: replaces
  EXPECT_TRUE(table.Insert(earlier));
  EXPECT_EQ(table.entries()[0].option, 1);

  DpEntry cheaper = e;
  cheaper.cost = 2.5;
  cheaper.option = 9;  // strictly cheaper replaces even if grid-later
  EXPECT_TRUE(table.Insert(cheaper));
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].cost, 2.5);
}

TEST(DpMemoTableTest, PruneDropsStrictlyDominatedEntries) {
  DpMemoTable table(2, OrderByOption());
  DpEntry cheap_tight;  // dominates: cheaper AND no more budget spent
  cheap_tight.cost = 1.0;
  cheap_tight.steps = {2, 3, 0, 0};
  cheap_tight.option = 0;
  DpEntry costly_loose;
  costly_loose.cost = 2.0;
  costly_loose.steps = {3, 3, 0, 0};
  costly_loose.option = 1;
  DpEntry incomparable;  // cheaper than cheap_tight but spends more in d0
  incomparable.cost = 0.5;
  incomparable.steps = {5, 0, 0, 0};
  incomparable.option = 2;
  table.Insert(cheap_tight);
  table.Insert(costly_loose);
  table.Insert(incomparable);

  table.Prune();
  ASSERT_EQ(table.entries().size(), 2u);
  // Survivors keep insertion order.
  EXPECT_EQ(table.entries()[0].option, 0);
  EXPECT_EQ(table.entries()[1].option, 2);
}

TEST(DpMemoTableTest, CostTiedDominationNeedsTheGridOrderWitness) {
  DpMemoTable table(2, OrderByOption());
  DpEntry a;  // equal cost, tighter budget, but grid-LATER than b
  a.cost = 1.0;
  a.steps = {1, 1, 0, 0};
  a.option = 5;
  DpEntry b;
  b.cost = 1.0;
  b.steps = {2, 2, 0, 0};
  b.option = 3;
  table.Insert(a);
  table.Insert(b);
  // a's budget dominates b's, but pruning b could lose the allocation the
  // grid walk's first-minimum-wins scan returns — both must survive.
  EXPECT_FALSE(table.Dominates(a, b));
  table.Prune();
  EXPECT_EQ(table.entries().size(), 2u);

  // Flip the grid order and b IS dominated.
  a.option = 2;
  DpMemoTable table2(2, OrderByOption());
  table2.Insert(a);
  table2.Insert(b);
  EXPECT_TRUE(table2.Dominates(a, b));
  table2.Prune();
  ASSERT_EQ(table2.entries().size(), 1u);
  EXPECT_EQ(table2.entries()[0].option, 2);
}

/// Runs `strategy` on a fresh copy of the synthetic workload.
EnumerationResult RunStrategy(const std::string& name,
                              const SearchSpec& base,
                              const std::vector<double>& ac,
                              const std::vector<double>& am,
                              const std::vector<double>& beta,
                              const std::vector<QosSpec>& qos,
                              std::vector<ResourceVector> initial = {}) {
  SyntheticEstimator est(ac, am, beta);
  SearchSpec spec = base;
  spec.strategy = name;
  return MakeSearchStrategy(spec)->Run(&est, qos, std::move(initial));
}

/// Runs the grid oracle on a fresh copy of the synthetic workload.
EnumerationResult RunOracle(const SearchSpec& base,
                            const std::vector<double>& ac,
                            const std::vector<double>& am,
                            const std::vector<double>& beta,
                            const std::vector<QosSpec>& qos) {
  SyntheticEstimator est(ac, am, beta);
  return oracle::GridArgmin(&est, qos, base.enumerator);
}

/// Bitwise agreement of two results: allocations, per-tenant costs, the
/// objective (exact, not NEAR) and the QoS verdicts.
void ExpectBitIdentical(const EnumerationResult& got,
                        const EnumerationResult& want) {
  ASSERT_EQ(got.allocations.size(), want.allocations.size());
  for (size_t i = 0; i < want.allocations.size(); ++i) {
    EXPECT_EQ(got.allocations[i], want.allocations[i]) << i;  // bitwise
    EXPECT_EQ(got.tenant_costs[i], want.tenant_costs[i]) << i;
  }
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.violated_qos, want.violated_qos);
}

/// The headline property, swept over random workloads: on the same grid,
/// dp_prune and the grid oracle return bit-identical allocations,
/// objectives, and QoS verdicts — in particular dp_prune can never report
/// a violation where the oracle found a feasible optimum.
TEST(DpPruneStrategyTest, BitExactWithExhaustiveOverRandomWorkloads) {
  for (int n : {2, 3}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 0x9e3779b97f4a7c15ULL);
      std::vector<double> ac, am, beta;
      std::vector<QosSpec> qos(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        ac.push_back(rng.Uniform(1.0, 50.0));
        am.push_back(rng.Uniform(1.0, 50.0));
        beta.push_back(rng.Uniform(0.0, 5.0));
        qos[static_cast<size_t>(i)].gain_factor =
            rng.Uniform() < 0.5 ? 1.0 : 2.0;
        if (rng.Uniform() < 0.5) {
          qos[static_cast<size_t>(i)].degradation_limit =
              rng.Uniform(2.0, 6.0);
        }
      }
      SearchSpec base;
      if (n >= 3) base.enumerator.delta = 0.1;  // keep the grid small

      EnumerationResult want = RunOracle(base, ac, am, beta, qos);
      EnumerationResult got = RunStrategy("dp_prune", base, ac, am, beta, qos);

      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      ExpectBitIdentical(got, want);
      EXPECT_TRUE(got.converged);
    }
  }
}

/// Identical tenants make exact cost ties common (swapping two tenants'
/// shares often leaves the objective bit-identical), and the share ladder
/// 0.05, 0.15, ..., 0.95 holds no even split, so the optimum comes as a
/// set of tied permutations and only the grid-order tie-breaks decide
/// which one dp_prune returns. Random workloads have no exact ties, so
/// this is the case that pins DpMemoTable's tie-breaks end to end.
TEST(DpPruneStrategyTest, BitExactWithTheOracleUnderIdenticalTenants) {
  for (int n : {2, 3}) {
    const std::vector<double> ac(static_cast<size_t>(n), 12.0);
    const std::vector<double> am(static_cast<size_t>(n), 7.0);
    const std::vector<double> beta(static_cast<size_t>(n), 1.0);
    const std::vector<QosSpec> qos(static_cast<size_t>(n));
    SearchSpec base;
    base.enumerator.delta = 0.1;

    EnumerationResult want = RunOracle(base, ac, am, beta, qos);
    EnumerationResult got = RunStrategy("dp_prune", base, ac, am, beta, qos);

    SCOPED_TRACE(testing::Message() << "n=" << n);
    ExpectBitIdentical(got, want);
  }
}

/// The ablation sweep's exact points on calibrated what-if estimates at
/// M = 4 (cpu/mem/io/net): DB2 SF1 tenants cycling through Q18 x10,
/// Q21 x10, Q1 x6 and the replication extract x10. dp_prune prices each
/// level through the estimator's pooled EstimateMany fan-out; the oracle
/// walks the same grid one EstimateSeconds probe at a time on its own
/// estimator.
TEST(DpPruneStrategyTest, BitExactWithTheOracleOnCalibratedWhatIfEstimates) {
  scenario::TestbedOptions topts;
  topts.with_sf10 = false;
  topts.with_tpcc = false;
  scenario::Testbed tb(topts);
  simvm::PhysicalMachine m4 = tb.machine();
  m4.resources = &simvm::ResourceModel::CpuMemIoNet();
  simdb::Workload q18, q21, q1, extract;
  q18.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  q21.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 10.0);
  q1.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 1), 6.0);
  extract.AddStatement(workload::TpchReplicationExtract(tb.tpch_sf1()), 10.0);
  const std::vector<simdb::Workload> mix = {q18, q21, q1, extract};

  struct Point {
    int n;
    double delta;
    double min_share;
  };
  for (const Point& point : {Point{2, 0.2, 0.05}, Point{4, 0.2, 0.15}}) {
    std::vector<advisor::Tenant> tenants;
    std::vector<QosSpec> qos;
    for (int i = 0; i < point.n; ++i) {
      tenants.push_back(
          tb.MakeTenant(tb.db2_sf1(), mix[static_cast<size_t>(i)]));
      qos.push_back(tenants.back().qos);
    }
    SearchSpec spec;
    spec.strategy = "dp_prune";
    spec.enumerator.delta = point.delta;
    spec.enumerator.min_share = point.min_share;

    advisor::WhatIfCostEstimator got_est(m4, tenants);
    advisor::WhatIfCostEstimator want_est(m4, tenants);
    EnumerationResult got = MakeSearchStrategy(spec)->Run(&got_est, qos, {});
    EnumerationResult want =
        oracle::GridArgmin(&want_est, qos, spec.enumerator);

    SCOPED_TRACE(testing::Message() << "n=" << point.n);
    ASSERT_EQ(want.allocations.front().dims(), 4);
    ExpectBitIdentical(got, want);
  }
}

TEST(DpPruneStrategyTest, OneTenantSolveReturnsAValidAllocation) {
  // A lone tenant may take the whole machine, i.e. BudgetGrid's top rung;
  // the solve used to abort on VDBA_CHECK r.Valid() at a share just above
  // 1.0. It must return a valid allocation that matches the grid oracle.
  scenario::TestbedOptions topts;
  topts.with_sf10 = false;
  topts.with_tpcc = false;
  scenario::Testbed tb(topts);
  simdb::Workload q18;
  q18.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  advisor::AdvisorOptions options;
  options.search.strategy = "dp_prune";
  advisor::VirtualizationDesignAdvisor adv(
      tb.machine(), {tb.MakeTenant(tb.db2_sf1(), q18)}, options);
  advisor::Recommendation rec = adv.Recommend();
  ASSERT_EQ(rec.allocations.size(), 1u);
  EXPECT_TRUE(rec.allocations[0].Valid()) << rec.allocations[0].ToString();

  advisor::WhatIfCostEstimator oracle_est(tb.machine(),
                                          {tb.MakeTenant(tb.db2_sf1(), q18)});
  EnumerationResult want = oracle::GridArgmin(
      &oracle_est, {QosSpec{}}, options.search.enumerator);
  EXPECT_EQ(rec.allocations[0], want.allocations[0]);
  EXPECT_EQ(rec.objective, want.objective);
}

TEST(DpPruneStrategyTest, BitExactWithExhaustiveUnderPinnedDimensions) {
  // CPU-only mode with a caller-supplied memory split: pinned shares come
  // from `initial`, not from the 1/N default.
  SyntheticEstimator want_est({40, 5, 12}, {3, 9, 4}, {0, 0, 0});
  SyntheticEstimator got_est({40, 5, 12}, {3, 9, 4}, {0, 0, 0});
  std::vector<QosSpec> qos(3);
  std::vector<ResourceVector> init = {{1.0 / 3, 0.5},
                                      {1.0 / 3, 0.3},
                                      {1.0 / 3, 0.2}};
  SearchSpec spec;
  spec.enumerator.allocate[simvm::kMemDim] = false;
  spec.enumerator.delta = 0.1;

  EnumerationResult want =
      oracle::GridArgmin(&want_est, qos, spec.enumerator, init);
  spec.strategy = "dp_prune";
  EnumerationResult got = MakeSearchStrategy(spec)->Run(&got_est, qos, init);

  ExpectBitIdentical(got, want);
}

TEST(DpPruneStrategyTest, ScalesPastTheExhaustiveTenantLimitOptimally) {
  // N = 6 is past where the brute-force oracle stays affordable; the DP
  // still computes the true grid argmin, so it must beat-or-tie every
  // heuristic on the same grid — and its shares must respect the simplex.
  const std::vector<double> ac = {45, 2, 18, 3, 30, 7};
  const std::vector<double> am = {2, 35, 5, 22, 3, 11};
  const std::vector<double> beta(6, 0.0);
  std::vector<QosSpec> qos(6);
  SearchSpec base;
  base.enumerator.delta = 0.1;

  // The heuristics move in delta steps FROM THEIR START, so "same grid"
  // requires starting them on dp_prune's share ladder (min_share + k *
  // delta) — the default 1/6 split is off-ladder and explores a shifted
  // grid the DP's optimum cannot be compared against.
  std::vector<ResourceVector> on_grid(6, ResourceVector{0.15, 0.15});
  on_grid[0] = ResourceVector{0.25, 0.25};

  EnumerationResult dp = RunStrategy("dp_prune", base, ac, am, beta, qos);
  EnumerationResult greedy =
      RunStrategy("greedy", base, ac, am, beta, qos, on_grid);
  EnumerationResult annealing =
      RunStrategy("annealing", base, ac, am, beta, qos, on_grid);

  EXPECT_LE(dp.objective, greedy.objective + 1e-9);
  EXPECT_LE(dp.objective, annealing.objective + 1e-9);
  for (int d = 0; d < 2; ++d) {
    double total = 0.0;
    for (const ResourceVector& r : dp.allocations) {
      EXPECT_GE(r.share(d), 0.05 - 1e-9);
      total += r.share(d);
    }
    EXPECT_LE(total, 1.0 + 1e-6) << "dim " << d;
  }
}

}  // namespace
}  // namespace vdba::search
