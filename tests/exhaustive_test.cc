// The brute-force grid oracle (grid_oracle.h) on closed-form objectives,
// and local search checked against it.
#include "advisor/local_search.h"

#include <gtest/gtest.h>

#include "grid_oracle.h"

namespace vdba::advisor {
namespace {

double Objective(const std::vector<simvm::ResourceVector>& alloc,
                 const std::vector<double>& alpha_cpu,
                 const std::vector<double>& alpha_mem) {
  double total = 0.0;
  for (size_t i = 0; i < alloc.size(); ++i) {
    total += alpha_cpu[i] / alloc[i].cpu_share() +
             alpha_mem[i] / alloc[i].mem_share();
  }
  return total;
}

/// Objective() as a per-tenant cost estimator, for the grid oracle.
class ConvexEstimator : public CostEstimator {
 public:
  ConvexEstimator(std::vector<double> alpha_cpu, std::vector<double> alpha_mem)
      : alpha_cpu_(std::move(alpha_cpu)), alpha_mem_(std::move(alpha_mem)) {}
  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    const size_t i = static_cast<size_t>(tenant);
    return alpha_cpu_[i] / r.cpu_share() + alpha_mem_[i] / r.mem_share();
  }
  int num_tenants() const override {
    return static_cast<int>(alpha_cpu_.size());
  }
  int num_dims() const override { return 2; }

 private:
  std::vector<double> alpha_cpu_, alpha_mem_;
};

EnumerationResult Oracle(const std::vector<double>& ac,
                         const std::vector<double>& am,
                         const EnumeratorOptions& opts) {
  ConvexEstimator est(ac, am);
  return oracle::GridArgmin(&est, std::vector<QosSpec>(ac.size()), opts);
}

TEST(ExhaustiveTest, FindsGridOptimumForTwoTenants) {
  std::vector<double> ac = {36, 4}, am = {1, 1};
  EnumeratorOptions opts;
  EnumerationResult res = Oracle(ac, am, opts);
  // sqrt(36/4)=3 -> cpu ~ 0.75/0.25.
  EXPECT_NEAR(res.allocations[0].cpu_share(), 0.75, 0.051);
  EXPECT_GT(res.iterations, 100);
}

TEST(ExhaustiveTest, UsesFullBudgetWhenBeneficial) {
  // Strictly decreasing objective in both shares: optimum saturates the
  // resource (sum of shares reaches 1 per dimension).
  std::vector<double> ac = {1, 1}, am = {1, 1};
  EnumeratorOptions opts;
  EnumerationResult res = Oracle(ac, am, opts);
  EXPECT_NEAR(res.allocations[0].cpu_share() + res.allocations[1].cpu_share(),
              1.0, 1e-9);
}

TEST(ExhaustiveTest, CpuOnlyModeFixesMemory) {
  std::vector<double> ac = {9, 1}, am = {1, 1};
  EnumeratorOptions opts;
  opts.allocate[simvm::kMemDim] = false;
  EnumerationResult res = Oracle(ac, am, opts);
  EXPECT_NEAR(res.allocations[0].mem_share(), 0.5, 1e-9);
  EXPECT_NEAR(res.allocations[1].mem_share(), 0.5, 1e-9);
  EXPECT_GT(res.allocations[0].cpu_share(), 0.6);
}

TEST(LocalSearchTest, MatchesExhaustiveOnConvexObjective) {
  std::vector<double> ac = {25, 4, 9}, am = {4, 16, 1};
  EnumeratorOptions opts;
  auto objective = [&](const auto& a) { return Objective(a, ac, am); };
  EnumerationResult optimal = Oracle(ac, am, opts);
  auto local = LocalSearch({DefaultAllocation(3)}, objective, opts);
  EXPECT_NEAR(local.objective, optimal.objective, optimal.objective * 0.05);
}

TEST(LocalSearchTest, MultiStartEscapesPoorStart) {
  std::vector<double> ac = {50, 1}, am = {1, 1};
  EnumeratorOptions opts;
  auto objective = [&](const auto& a) { return Objective(a, ac, am); };
  // Deliberately bad start (starves the hungry tenant) plus the default.
  std::vector<std::vector<simvm::ResourceVector>> starts = {
      {{0.05, 0.5}, {0.95, 0.5}},
      DefaultAllocation(2),
  };
  auto res = LocalSearch(starts, objective, opts);
  EXPECT_GT(res.allocations[0].cpu_share(), 0.6);
}

TEST(LocalSearchTest, TakesTheFirstOfEquallySteepMoves) {
  // Tenants 1 and 2 are interchangeable, so giving tenant 0 CPU from
  // either one is equally steep. The frontier lists the transfer from
  // tenant 1 first, and the one allowed pass must take it.
  std::vector<double> ac = {50, 1, 1}, am = {1, 1, 1};
  EnumeratorOptions opts;
  opts.max_iterations = 1;
  auto objective = [&](const auto& a) { return Objective(a, ac, am); };
  auto res = LocalSearch({DefaultAllocation(3)}, objective, opts);
  EXPECT_GT(res.allocations[0].cpu_share(), 1.0 / 3);
  EXPECT_LT(res.allocations[1].cpu_share(), res.allocations[2].cpu_share());
}

TEST(LocalSearchTest, EstimatorObjectiveFansFrontierThroughEstimateMany) {
  // EstimatorObjective prices a whole move frontier in one EstimateMany
  // call, and each candidate's objective is the gain-weighted sum of its
  // tenants' estimates.
  class Synthetic : public CostEstimator {
   public:
    double EstimateSeconds(int tenant,
                           const simvm::ResourceVector& r) override {
      const double alpha[2] = {50, 1};
      return alpha[tenant] / r.cpu_share() + 1.0 / r.mem_share();
    }
    int num_tenants() const override { return 2; }
    int num_dims() const override { return 2; }
    std::vector<double> EstimateMany(
        std::span<const TenantAllocation> batch) override {
      ++fanouts;
      probes += static_cast<long>(batch.size());
      return CostEstimator::EstimateMany(batch);
    }
    int fanouts = 0;
    long probes = 0;
  };
  Synthetic est;
  std::vector<QosSpec> qos(2);
  qos[1].gain_factor = 3.0;
  std::vector<std::vector<simvm::ResourceVector>> frontier =
      PairwiseFrontier(DefaultAllocation(2), EnumeratorOptions());
  ASSERT_FALSE(frontier.empty());

  std::vector<double> objs = EstimatorObjective(&est, qos)(frontier);
  EXPECT_EQ(est.fanouts, 1);
  EXPECT_EQ(est.probes, 2 * static_cast<long>(frontier.size()));
  ASSERT_EQ(objs.size(), frontier.size());
  for (size_t k = 0; k < frontier.size(); ++k) {
    EXPECT_DOUBLE_EQ(objs[k], est.EstimateSeconds(0, frontier[k][0]) +
                                  3.0 * est.EstimateSeconds(1, frontier[k][1]))
        << k;
  }
}

TEST(LocalSearchTest, RespectsMinShare) {
  std::vector<double> ac = {100, 0.0001}, am = {1, 0.0001};
  EnumeratorOptions opts;
  opts.min_share = 0.1;
  auto objective = [&](const auto& a) { return Objective(a, ac, am); };
  auto res = LocalSearch({DefaultAllocation(2)}, objective, opts);
  EXPECT_GE(res.allocations[1].cpu_share(), 0.1 - 1e-9);
  EXPECT_GE(res.allocations[1].mem_share(), 0.1 - 1e-9);
}

}  // namespace
}  // namespace vdba::advisor
