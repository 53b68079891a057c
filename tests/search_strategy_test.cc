// The pluggable SearchStrategy layer: factory round-trips, greedy parity
// with the direct call, and quality ordering between strategies.
#include "advisor/search_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "advisor/advisor.h"
#include "advisor/greedy_enumerator.h"
#include "scenario/scenario.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

/// Synthetic estimator: Cost_i(R) = alpha_cpu[i]/cpu + alpha_mem[i]/mem +
/// beta[i]; closed-form and deterministic, so strategy comparisons are
/// exact.
class SyntheticEstimator : public CostEstimator {
 public:
  SyntheticEstimator(std::vector<double> alpha_cpu,
                     std::vector<double> alpha_mem, std::vector<double> beta)
      : alpha_cpu_(std::move(alpha_cpu)),
        alpha_mem_(std::move(alpha_mem)),
        beta_(std::move(beta)) {}

  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
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

TEST(SearchStrategyFactoryTest, RoundTripsEveryRegisteredName) {
  std::vector<std::string> names = RegisteredSearchStrategies();
  for (const char* expected :
       {"greedy", "local_search", "greedy_refine", "dp_prune", "annealing"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const std::string& name : names) {
    SearchSpec spec;
    spec.strategy = name;
    std::unique_ptr<SearchStrategy> strategy = MakeSearchStrategy(spec);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(SearchStrategyFactoryTest, UnknownNameAborts) {
  SearchSpec spec;
  spec.strategy = "branch_and_bound";
  EXPECT_DEATH(MakeSearchStrategy(spec), "unknown search strategy");
}

TEST(SearchStrategyTest, GreedyViaStrategyIsBitIdenticalToDirectCall) {
  const std::vector<double> ac = {40, 5, 12}, am = {1, 20, 6},
                            b = {0, 0, 0};
  std::vector<QosSpec> qos(3);
  qos[1].gain_factor = 2.0;

  SyntheticEstimator direct_est(ac, am, b);
  GreedyEnumerator direct;
  EnumerationResult want = direct.Run(&direct_est, qos);

  SearchSpec spec;  // default strategy: greedy
  SyntheticEstimator strategy_est(ac, am, b);
  EnumerationResult got =
      MakeSearchStrategy(spec)->Run(&strategy_est, qos, {});

  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_DOUBLE_EQ(got.objective, want.objective);
  ASSERT_EQ(got.allocations.size(), want.allocations.size());
  for (size_t i = 0; i < want.allocations.size(); ++i) {
    EXPECT_EQ(got.allocations[i], want.allocations[i]) << i;
    EXPECT_DOUBLE_EQ(got.tenant_costs[i], want.tenant_costs[i]) << i;
  }
  EXPECT_EQ(got.violated_qos, want.violated_qos);
}

TEST(SearchStrategyTest, ExhaustiveBeatsOrTiesGreedyAtSmallN) {
  const std::vector<double> ac = {36, 4}, am = {2, 8}, b = {0, 0};
  std::vector<QosSpec> qos(2);
  SearchSpec spec;

  SyntheticEstimator greedy_est(ac, am, b);
  spec.strategy = "greedy";
  EnumerationResult greedy =
      MakeSearchStrategy(spec)->Run(&greedy_est, qos, {});

  // dp_prune is the registry's exact grid search.
  SyntheticEstimator exact_est(ac, am, b);
  spec.strategy = "dp_prune";
  EnumerationResult exact = MakeSearchStrategy(spec)->Run(&exact_est, qos, {});

  EXPECT_LE(exact.objective, greedy.objective + 1e-9);
  EXPECT_TRUE(exact.converged);
  EXPECT_GT(exact.iterations, 0);  // DP expansions
}

TEST(SearchStrategyTest, GreedyRefineBeatsOrTiesGreedy) {
  const std::vector<double> ac = {100, 1, 50, 2}, am = {1, 80, 2, 40},
                            b = {0, 0, 0, 0};
  std::vector<QosSpec> qos(4);
  SearchSpec spec;

  SyntheticEstimator greedy_est(ac, am, b);
  spec.strategy = "greedy";
  EnumerationResult greedy =
      MakeSearchStrategy(spec)->Run(&greedy_est, qos, {});

  SyntheticEstimator refine_est(ac, am, b);
  spec.strategy = "greedy_refine";
  EnumerationResult refined =
      MakeSearchStrategy(spec)->Run(&refine_est, qos, {});

  EXPECT_LE(refined.objective, greedy.objective + 1e-9);
}

TEST(SearchStrategyTest, LocalSearchFindsTheSkewedOptimum) {
  // One CPU-hungry tenant: hill climbing from 1/N must shift CPU hard.
  SyntheticEstimator est({50, 1}, {1, 1}, {0, 0});
  SearchSpec spec;
  spec.strategy = "local_search";
  EnumerationResult res =
      MakeSearchStrategy(spec)->Run(&est, std::vector<QosSpec>(2), {});
  EXPECT_GT(res.allocations[0].cpu_share(), 0.6);
  EXPECT_NEAR(
      res.allocations[0].cpu_share() + res.allocations[1].cpu_share(), 1.0,
      1e-9);
}

TEST(SearchStrategyTest, StrategiesRespectPinnedDimensionsFromInitial) {
  // CPU-only mode: every strategy must keep the caller's memory shares.
  SyntheticEstimator est({40, 5}, {3, 3}, {0, 0});
  std::vector<QosSpec> qos(2);
  std::vector<simvm::ResourceVector> init = {{0.5, 0.3}, {0.5, 0.3}};
  for (const std::string& name : RegisteredSearchStrategies()) {
    SearchSpec spec;
    spec.strategy = name;
    spec.enumerator.allocate[simvm::kMemDim] = false;
    EnumerationResult res = MakeSearchStrategy(spec)->Run(&est, qos, init);
    ASSERT_EQ(res.allocations.size(), 2u) << name;
    EXPECT_NEAR(res.allocations[0].mem_share(), 0.3, 1e-12) << name;
    EXPECT_NEAR(res.allocations[1].mem_share(), 0.3, 1e-12) << name;
  }
}

TEST(SearchStrategyTest, AdvisorRecordsStrategyNameAndObeysSpec) {
  static scenario::Testbed tb;
  simdb::Workload w1, w2;
  w1.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 5.0);
  w2.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 20.0);
  std::vector<Tenant> tenants = {tb.MakeTenant(tb.db2_sf1(), w1),
                                 tb.MakeTenant(tb.db2_sf1(), w2)};

  AdvisorOptions greedy_opts;
  VirtualizationDesignAdvisor greedy_adv(tb.machine(), tenants, greedy_opts);
  Recommendation greedy_rec = greedy_adv.Recommend();
  EXPECT_EQ(greedy_rec.strategy, "greedy");

  AdvisorOptions ex_opts;
  ex_opts.search.strategy = "dp_prune";
  VirtualizationDesignAdvisor ex_adv(tb.machine(), tenants, ex_opts);
  Recommendation ex_rec = ex_adv.Recommend();
  EXPECT_EQ(ex_rec.strategy, "dp_prune");

  // §4.5: greedy is within 5% of the exact grid optimum on estimates.
  EXPECT_LE(ex_rec.objective, greedy_rec.objective + 1e-9);
  EXPECT_GE(greedy_rec.objective, ex_rec.objective * 0.999);
  EXPECT_LE(greedy_rec.objective, ex_rec.objective * 1.05);
}

}  // namespace
}  // namespace vdba::advisor
