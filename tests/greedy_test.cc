#include "advisor/greedy_enumerator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "util/piecewise.h"

namespace vdba::advisor {
namespace {

/// Synthetic estimator: Cost_i(R) = alpha_cpu[i]/cpu + alpha_mem[i]/mem +
/// beta[i]. Lets greedy behaviour be verified against closed-form optima.
class SyntheticEstimator : public CostEstimator {
 public:
  SyntheticEstimator(std::vector<double> alpha_cpu,
                     std::vector<double> alpha_mem, std::vector<double> beta)
      : alpha_cpu_(std::move(alpha_cpu)),
        alpha_mem_(std::move(alpha_mem)),
        beta_(std::move(beta)) {}

  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    ++calls_;
    size_t i = static_cast<size_t>(tenant);
    return alpha_cpu_[i] / r.cpu_share() + alpha_mem_[i] / r.mem_share() +
           beta_[i];
  }
  int num_tenants() const override {
    return static_cast<int>(alpha_cpu_.size());
  }
  int num_dims() const override { return 2; }
  long calls() const { return calls_; }

 private:
  std::vector<double> alpha_cpu_, alpha_mem_, beta_;
  long calls_ = 0;
};

TEST(GreedyTest, DefaultAllocationIsEqualShares) {
  auto alloc = DefaultAllocation(4);
  ASSERT_EQ(alloc.size(), 4u);
  for (const auto& r : alloc) {
    EXPECT_NEAR(r.cpu_share(), 0.25, 1e-12);
    EXPECT_NEAR(r.mem_share(), 0.25, 1e-12);
  }
}

TEST(GreedyTest, SymmetricWorkloadsKeepEqualShares) {
  SyntheticEstimator est({10, 10}, {5, 5}, {1, 1});
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {QosSpec{}, QosSpec{}});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.allocations[0].cpu_share(), 0.5, 1e-9);
  EXPECT_NEAR(res.allocations[1].cpu_share(), 0.5, 1e-9);
  EXPECT_EQ(res.iterations, 1);  // immediately no beneficial move
}

TEST(GreedyTest, CpuHungryTenantGetsMoreCpu) {
  // alpha_cpu 40 vs 5: equilibrium cpu1/cpu2 = sqrt(40/5) ~ 2.8.
  SyntheticEstimator est({40, 5}, {1, 1}, {0, 0});
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {QosSpec{}, QosSpec{}});
  EXPECT_GT(res.allocations[0].cpu_share(), 0.65);
  EXPECT_LT(res.allocations[1].cpu_share(), 0.35);
  // Shares remain a partition of the resource.
  EXPECT_NEAR(res.allocations[0].cpu_share() + res.allocations[1].cpu_share(),
              1.0, 1e-9);
}

TEST(GreedyTest, SharesSumToAtMostOnePerResource) {
  SyntheticEstimator est({8, 3, 12, 1}, {2, 9, 1, 4}, {0, 0, 0, 0});
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est,
                        {QosSpec{}, QosSpec{}, QosSpec{}, QosSpec{}});
  double cpu = 0.0, mem = 0.0;
  for (const auto& r : res.allocations) {
    cpu += r.cpu_share();
    mem += r.mem_share();
    EXPECT_GE(r.cpu_share(), greedy.options().min_share - 1e-9);
    EXPECT_GE(r.mem_share(), greedy.options().min_share - 1e-9);
  }
  EXPECT_LE(cpu, 1.0 + 1e-9);
  EXPECT_LE(mem, 1.0 + 1e-9);
}

TEST(GreedyTest, EachIterationReducesObjective) {
  SyntheticEstimator est({40, 5}, {1, 20}, {0, 0});
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {QosSpec{}, QosSpec{}});
  // Converged objective must beat the default allocation's objective.
  double def_obj = est.EstimateSeconds(0, {0.5, 0.5}) +
                   est.EstimateSeconds(1, {0.5, 0.5});
  EXPECT_LT(res.objective, def_obj);
  EXPECT_TRUE(res.converged);
}

TEST(GreedyTest, RespectsDegradationLimit) {
  // Tenant 0 is CPU-hungry; without QoS it would squeeze tenant 1 to a
  // degradation of ~3.9x. A limit of 2.5 must cap the squeeze. (Like the
  // paper's Figure-11 algorithm, limits only constrain REMOVALS: the
  // default allocation must itself satisfy the limit, which it does here:
  // degradation at [0.5, 0.5] is 12/6 = 2.)
  SyntheticEstimator est({40, 5}, {1, 1}, {0, 0});
  QosSpec limited;
  limited.degradation_limit = 2.5;  // vs Cost([1,1]) = 6 -> max 15
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {QosSpec{}, limited});
  double cost1 = res.tenant_costs[1];
  double full1 = est.EstimateSeconds(1, {1.0, 1.0});
  EXPECT_LE(cost1 / full1, 2.5 + 1e-6);
  EXPECT_TRUE(res.violated_qos.empty());

  // Without the limit, tenant 1 ends up worse than 2.5x.
  auto free_res = greedy.Run(&est, {QosSpec{}, QosSpec{}});
  EXPECT_GT(free_res.tenant_costs[1] / full1, 2.5);
}

TEST(GreedyTest, ImpossibleLimitReportedAsViolated) {
  // Degradation limit 1.0 means "no worse than having the whole machine" —
  // unattainable when sharing with anyone.
  SyntheticEstimator est({10, 10}, {5, 5}, {0, 0});
  QosSpec impossible;
  impossible.degradation_limit = 1.0;
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {impossible, impossible});
  EXPECT_EQ(res.violated_qos.size(), 2u);
}

/// SyntheticEstimator that prices batches itself and counts the
/// EstimateSeconds calls made from outside a batch.
class BatchOnlyEstimator : public SyntheticEstimator {
 public:
  using SyntheticEstimator::SyntheticEstimator;

  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    ++outside_calls_;
    return SyntheticEstimator::EstimateSeconds(tenant, r);
  }
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override {
    std::vector<double> out;
    out.reserve(batch.size());
    for (const TenantAllocation& item : batch) {
      out.push_back(SyntheticEstimator::EstimateSeconds(item.tenant, item.r));
    }
    return out;
  }
  long outside_calls() const { return outside_calls_; }

 private:
  long outside_calls_ = 0;
};

TEST(GreedyTest, RestorationPricesOnlyThroughEstimateMany) {
  // An unattainable limit (as in ImpossibleLimitReportedAsViolated) sends
  // greedy into feasibility restoration; a limit the equal split breaks
  // but a transfer can meet makes restoration move share. Either way
  // every probe must arrive in a batch, and the result must equal the
  // scalar-answering estimator's.
  QosSpec impossible;
  impossible.degradation_limit = 1.0;
  QosSpec tight;
  tight.degradation_limit = 1.5;  // tenant 1: 12 at the equal split vs 6
  const std::vector<std::vector<QosSpec>> cases = {
      {impossible, impossible}, {QosSpec{}, tight}};
  GreedyEnumerator greedy;
  for (const std::vector<QosSpec>& qos : cases) {
    SyntheticEstimator scalar({40, 5}, {1, 1}, {0, 0});
    BatchOnlyEstimator batched({40, 5}, {1, 1}, {0, 0});
    EnumerationResult want = greedy.Run(&scalar, qos);
    EnumerationResult got = greedy.Run(&batched, qos);
    EXPECT_EQ(batched.outside_calls(), 0);
    EXPECT_EQ(got.violated_qos, want.violated_qos);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.tenant_costs, want.tenant_costs);
    for (size_t i = 0; i < qos.size(); ++i) {
      EXPECT_EQ(got.allocations[i].cpu_share(),
                want.allocations[i].cpu_share());
      EXPECT_EQ(got.allocations[i].mem_share(),
                want.allocations[i].mem_share());
    }
  }
  SyntheticEstimator est({40, 5}, {1, 1}, {0, 0});
  EXPECT_EQ(greedy.Run(&est, cases[0]).violated_qos.size(), 2u);
  EnumerationResult met = greedy.Run(&est, cases[1]);
  EXPECT_TRUE(met.violated_qos.empty());
  EXPECT_LE(met.tenant_costs[1], 1.5 * est.EstimateSeconds(1, {1.0, 1.0}));
}

TEST(GreedyTest, GainFactorSkewsAllocation) {
  SyntheticEstimator est({10, 10}, {1, 1}, {0, 0});
  QosSpec boosted;
  boosted.gain_factor = 5.0;
  GreedyEnumerator greedy;
  auto res = greedy.Run(&est, {boosted, QosSpec{}});
  EXPECT_GT(res.allocations[0].cpu_share(), res.allocations[1].cpu_share());
}

TEST(GreedyTest, CpuOnlyModeLeavesMemoryUntouched) {
  SyntheticEstimator est({40, 5}, {30, 2}, {0, 0});
  EnumeratorOptions opts;
  opts.allocate[simvm::kMemDim] = false;
  GreedyEnumerator greedy(opts);
  std::vector<simvm::ResourceVector> init = {{0.5, 0.3}, {0.5, 0.3}};
  auto res = greedy.Run(&est, {QosSpec{}, QosSpec{}}, init);
  EXPECT_NEAR(res.allocations[0].mem_share(), 0.3, 1e-12);
  EXPECT_NEAR(res.allocations[1].mem_share(), 0.3, 1e-12);
  EXPECT_NE(res.allocations[0].cpu_share(), 0.5);
}

TEST(GreedyTest, ConvergesWithinIterationCap) {
  SyntheticEstimator est({100, 1, 50, 2, 25}, {1, 80, 2, 40, 4},
                         {0, 0, 0, 0, 0});
  GreedyEnumerator greedy;
  auto res = greedy.Run(
      &est, std::vector<QosSpec>(5));
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, greedy.options().max_iterations);
}

TEST(GreedyTest, AllocatesRejectsOutOfRangeDims) {
  // Regression: Allocates(dim) used to index past the array for dims >=
  // kMaxResourceDims (e.g. a 5-dimension estimator probing dim 4).
  EnumeratorOptions opts;
  for (int dim = 0; dim < simvm::kMaxResourceDims; ++dim) {
    EXPECT_TRUE(opts.Allocates(dim)) << dim;
  }
  EXPECT_FALSE(opts.Allocates(simvm::kMaxResourceDims));
  EXPECT_FALSE(opts.Allocates(simvm::kMaxResourceDims + 7));
  EXPECT_FALSE(opts.Allocates(-1));
}

TEST(GreedyTest, DeltaScheduleDefaultsToSingleStage) {
  EnumeratorOptions opts;
  EXPECT_EQ(opts.NumStages(), 1);
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kCpuDim, 0), opts.delta);
  EXPECT_DOUBLE_EQ(opts.FinestDelta(simvm::kMemDim), opts.delta);

  opts.deltas[simvm::kCpuDim] = {0.2, 0.05, 0.01};
  opts.deltas[simvm::kMemDim] = {0.1};
  EXPECT_EQ(opts.NumStages(), 3);
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kCpuDim, 0), 0.2);
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kCpuDim, 2), 0.01);
  // Past-the-end stages clamp to the finest entry; shorter schedules stay
  // at theirs.
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kCpuDim, 9), 0.01);
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kMemDim, 2), 0.1);
  // Dimensions without a schedule keep the scalar delta at every stage.
  EXPECT_DOUBLE_EQ(opts.DeltaAt(simvm::kIoDim, 2), opts.delta);
  EXPECT_DOUBLE_EQ(opts.FinestDelta(simvm::kCpuDim), 0.01);
}

TEST(GreedyTest, DeltaScheduleAnnealsCoarseToFine) {
  // Coarse-to-fine annealing should land near the closed-form optimum
  // (cpu* = 0.75 for alpha ratio 9) in far fewer iterations than a
  // fine-only search, because most of the distance is covered at the
  // coarse step.
  SyntheticEstimator est_fine({36, 4}, {1, 1}, {0, 0});
  EnumeratorOptions fine;
  fine.delta = 0.01;
  fine.min_share = 0.01;
  auto res_fine = GreedyEnumerator(fine).Run(&est_fine, {QosSpec{}, QosSpec{}});

  SyntheticEstimator est_sched({36, 4}, {1, 1}, {0, 0});
  EnumeratorOptions sched;
  sched.min_share = 0.01;
  sched.deltas[simvm::kCpuDim] = {0.1, 0.05, 0.01};
  sched.deltas[simvm::kMemDim] = {0.1, 0.05, 0.01};
  auto res_sched =
      GreedyEnumerator(sched).Run(&est_sched, {QosSpec{}, QosSpec{}});

  EXPECT_TRUE(res_fine.converged);
  EXPECT_TRUE(res_sched.converged);
  double expected = std::sqrt(36.0 / 4.0) / (1.0 + std::sqrt(36.0 / 4.0));
  EXPECT_NEAR(res_sched.allocations[0].cpu_share(), expected, 0.03);
  EXPECT_NEAR(res_sched.objective, res_fine.objective,
              0.02 * res_fine.objective);
  EXPECT_LT(res_sched.iterations, res_fine.iterations);
}

TEST(GreedyTest, ScheduledSearchBeatsCoarseOnlySearch) {
  // The finest stage refines past the coarse grid: the annealed result
  // must be at least as good as stopping at the coarse step.
  SyntheticEstimator est_coarse({36, 4}, {1, 1}, {0, 0});
  EnumeratorOptions coarse;
  coarse.delta = 0.1;
  coarse.min_share = 0.01;
  auto res_coarse =
      GreedyEnumerator(coarse).Run(&est_coarse, {QosSpec{}, QosSpec{}});

  SyntheticEstimator est_sched({36, 4}, {1, 1}, {0, 0});
  EnumeratorOptions sched = coarse;
  sched.deltas[simvm::kCpuDim] = {0.1, 0.02};
  sched.deltas[simvm::kMemDim] = {0.1, 0.02};
  auto res_sched =
      GreedyEnumerator(sched).Run(&est_sched, {QosSpec{}, QosSpec{}});

  EXPECT_LT(res_sched.objective, res_coarse.objective + 1e-12);
  EXPECT_GT(res_sched.iterations, res_coarse.iterations);
}

TEST(GreedyTest, BatchedFrontierOrderIndependent) {
  // A CostEstimator whose EstimateMany evaluates the frontier back to
  // front (a stand-in for arbitrary parallel completion order) must drive
  // greedy to the identical result as the sequential default.
  class ReversedEstimator : public SyntheticEstimator {
   public:
    using SyntheticEstimator::SyntheticEstimator;
    std::vector<double> EstimateMany(
        std::span<const TenantAllocation> batch) override {
      std::vector<double> out(batch.size(), 0.0);
      for (size_t i = batch.size(); i-- > 0;) {
        out[i] = EstimateSeconds(batch[i].tenant, batch[i].r);
      }
      return out;
    }
  };
  SyntheticEstimator seq({40, 5, 12}, {1, 20, 6}, {0, 0, 0});
  ReversedEstimator rev({40, 5, 12}, {1, 20, 6}, {0, 0, 0});
  GreedyEnumerator greedy;
  std::vector<QosSpec> qos(3);
  auto a = greedy.Run(&seq, qos);
  auto b = greedy.Run(&rev, qos);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i], b.allocations[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(GreedyTest, NearClosedFormOptimumForTwoTenants) {
  // For Cost = a_i/c_i with c_1 + c_2 = 1 the optimum satisfies
  // c_1/c_2 = sqrt(a_1/a_2).
  SyntheticEstimator est({36, 4}, {1, 1}, {0, 0});
  EnumeratorOptions opts;
  opts.delta = 0.01;  // fine grid for accuracy
  opts.min_share = 0.01;
  GreedyEnumerator greedy(opts);
  auto res = greedy.Run(&est, {QosSpec{}, QosSpec{}});
  double expected = std::sqrt(36.0 / 4.0) / (1.0 + std::sqrt(36.0 / 4.0));
  EXPECT_NEAR(res.allocations[0].cpu_share(), expected, 0.03);
}

}  // namespace
}  // namespace vdba::advisor
