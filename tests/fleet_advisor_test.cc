// FleetAdvisor: placement-policy registry round-trips, FFD packing on
// synthetic demand, single-PM parity with the plain advisor, thread-count
// determinism, migration QoS/cost safety, and heterogeneous placement
// affinity (shipping-heavy tenants on the net-fast box).
#include "advisor/fleet_advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/cost_estimator.h"
#include "scenario/scenario.h"
#include "workload/tpch.h"
#include "workload/units.h"

namespace vdba::advisor {
namespace {

TEST(PlacementPolicyFactoryTest, RoundTripsEveryRegisteredName) {
  std::vector<std::string> names = RegisteredPlacementPolicies();
  for (const char* expected : {"first_fit_decreasing", "round_robin"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const std::string& name : names) {
    PlacementSpec spec;
    spec.policy = name;
    std::unique_ptr<PlacementPolicy> policy = MakePlacementPolicy(spec);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PlacementPolicyFactoryTest, UnknownNameAborts) {
  PlacementSpec spec;
  spec.policy = "best_fit";
  EXPECT_DEATH(MakePlacementPolicy(spec), "unknown placement policy");
}

TEST(FirstFitDecreasingTest, RoutesTenantsToTheirCheapestMachine) {
  // Tenant 0 is cheap on machine 1, tenant 2 on machine 0; generous
  // capacity means everyone lands on their affinity box. Tenant 1 ties and
  // must break to the lower index.
  PlacementInput input;
  input.num_machines = 2;
  input.demand = {{10.0, 5.0}, {8.0, 8.0}, {2.0, 6.0}};
  input.capacity = {100.0, 100.0};
  std::vector<int> got = FirstFitDecreasingPolicy().Place(input);
  EXPECT_EQ(got, (std::vector<int>{1, 0, 0}));
}

TEST(FirstFitDecreasingTest, CapacitySpreadsLoadAndOverflowIsLeastLoaded) {
  // Every tenant prefers machine 0, but capacity 10 only holds one of the
  // 8s there; the decreasing order packs the big ones first and the last
  // tenant overflows to the least-loaded outcome.
  PlacementInput input;
  input.num_machines = 2;
  input.demand = {{8.0, 9.0}, {8.0, 9.0}, {8.0, 9.0}};
  input.capacity = {10.0, 10.0};
  std::vector<int> got = FirstFitDecreasingPolicy().Place(input);
  EXPECT_EQ(got[0], 0);  // first big tenant takes its preferred box
  EXPECT_EQ(got[1], 1);  // second no longer fits on 0, fits on 1
  // Third fits nowhere: projected loads are 16 on machine 0 vs 18 on 1.
  EXPECT_EQ(got[2], 0);
}

TEST(RoundRobinTest, DealsTenantsModuloMachines) {
  PlacementInput input;
  input.num_machines = 3;
  input.demand = {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}};
  input.capacity = {4, 4, 4};
  EXPECT_EQ(RoundRobinPolicy().Place(input),
            (std::vector<int>{0, 1, 2, 0}));
}

std::vector<Tenant> MixedTenants(const scenario::Testbed& tb, int n) {
  // Alternating CPU-hungry (Q18) and I/O-bound (Q21) workloads with a
  // spread of sizes, so bins are genuinely contended.
  std::vector<Tenant> tenants;
  for (int i = 0; i < n; ++i) {
    simdb::Workload w;
    w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 == 0 ? 18 : 21),
                   2.0 + i);
    QosSpec qos;
    qos.gain_factor = i % 3 == 0 ? 2.0 : 1.0;
    tenants.push_back(tb.MakeTenant(i % 2 == 0 ? tb.db2_sf1() : tb.pg_sf1(),
                                    w, qos));
  }
  return tenants;
}

TEST(FleetAdvisorTest, SinglePmFleetIsBitIdenticalToPlainAdvisor) {
  static scenario::Testbed tb;
  std::vector<Tenant> tenants = MixedTenants(tb, 3);

  VirtualizationDesignAdvisor plain(tb.machine(), tenants, AdvisorOptions());
  Recommendation want = plain.Recommend();

  FleetAdvisor fleet({FleetMachine{tb.machine()}}, tenants, FleetOptions());
  FleetRecommendation got = fleet.Recommend();

  EXPECT_EQ(got.assignment, std::vector<int>(3, 0));
  EXPECT_EQ(got.migrations, 0);
  ASSERT_EQ(got.allocations.size(), want.allocations.size());
  for (size_t i = 0; i < want.allocations.size(); ++i) {
    EXPECT_EQ(got.allocations[i], want.allocations[i]) << i;
    EXPECT_DOUBLE_EQ(got.estimated_seconds[i], want.estimated_seconds[i])
        << i;
  }
  EXPECT_EQ(got.violated_qos, want.violated_qos);
  EXPECT_DOUBLE_EQ(got.total_cost, want.objective);
  ASSERT_EQ(got.machines.size(), 1u);
  EXPECT_EQ(got.machines[0].recommendation.strategy, want.strategy);
}

// Bitwise equality of two fleet recommendations, machine by machine.
void ExpectSameFleetRecommendation(const FleetRecommendation& a,
                                   const FleetRecommendation& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migration_attempts, b.migration_attempts);
  EXPECT_EQ(a.violated_qos, b.violated_qos);
  EXPECT_EQ(a.total_cost, b.total_cost);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i], b.allocations[i]) << i;
    EXPECT_EQ(a.estimated_seconds[i], b.estimated_seconds[i]) << i;
  }
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (size_t m = 0; m < a.machines.size(); ++m) {
    const Recommendation& ra = a.machines[m].recommendation;
    const Recommendation& rb = b.machines[m].recommendation;
    EXPECT_EQ(a.machines[m].tenants, b.machines[m].tenants) << m;
    EXPECT_EQ(ra.allocations, rb.allocations) << m;
    EXPECT_EQ(ra.estimated_seconds, rb.estimated_seconds) << m;
    EXPECT_EQ(ra.iterations, rb.iterations) << m;
    EXPECT_EQ(ra.violated_qos, rb.violated_qos) << m;
  }
}

TEST(FleetAdvisorTest, RecommendationIsIdenticalAcrossThreadCounts) {
  static scenario::Testbed tb;
  std::vector<FleetMachine> machines(3, FleetMachine{tb.machine()});
  // Six tenants accept no migration; eight accept some, which runs the
  // concurrent re-solves of each migration candidate's two bins.
  for (int n : {6, 8}) {
    SCOPED_TRACE(n);
    std::vector<Tenant> tenants = MixedTenants(tb, n);
    std::vector<FleetRecommendation> got;
    for (int threads : {1, 2, 4}) {
      FleetOptions options;
      options.threads = threads;
      got.push_back(FleetAdvisor(machines, tenants, options).Recommend());
    }
    if (n == 8) {
      EXPECT_GT(got[0].migrations, 0);
      EXPECT_GT(got[0].migration_attempts, got[0].migrations);
    }
    for (size_t k = 1; k < got.size(); ++k) {
      SCOPED_TRACE(k);
      ExpectSameFleetRecommendation(got[0], got[k]);
    }
  }
}

TEST(FleetAdvisorTest, MigrationNeverRaisesCostOrAddsViolations) {
  static scenario::Testbed tb;
  // Tight degradation limits on a crowded fleet: some violations are
  // inevitable, and migration must not mint new ones.
  std::vector<Tenant> tenants = MixedTenants(tb, 8);
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].qos.degradation_limit = i % 2 == 0 ? 4.0 : 8.0;
  }
  std::vector<FleetMachine> machines(2, FleetMachine{tb.machine()});

  FleetOptions off;
  off.migrate = false;
  FleetRecommendation before = FleetAdvisor(machines, tenants, off).Recommend();

  FleetOptions on;  // migrate = true by default
  FleetRecommendation after = FleetAdvisor(machines, tenants, on).Recommend();

  EXPECT_LE(after.total_cost, before.total_cost + 1e-9);
  // Every post-migration violation already existed pre-migration.
  for (int id : after.violated_qos) {
    EXPECT_NE(std::find(before.violated_qos.begin(),
                        before.violated_qos.end(), id),
              before.violated_qos.end())
        << "migration introduced a new QoS violation for tenant " << id;
  }
  EXPECT_GE(after.migration_attempts, after.migrations);
}

TEST(FleetAdvisorTest, ShippingHeavyTenantsLandOnTheNetFastBox) {
  // Two-box heterogeneous fleet under the M = 4 model: a balanced machine
  // and one with a 4x faster NIC, each with its own calibration. The
  // placement must put the data-shipping-heavy tenants on the net-fast
  // box — their demand there is measurably lower.
  scenario::TestbedOptions base_opts;
  base_opts.machine.resources = &simvm::ResourceModel::CpuMemIoNet();
  base_opts.calibration.io_shares = {0.35, 0.5, 0.7, 1.0};
  base_opts.calibration.net_shares = {0.35, 0.5, 0.7, 1.0};
  base_opts.with_sf10 = false;
  base_opts.with_tpcc = false;
  static scenario::Testbed balanced(base_opts);

  scenario::TestbedOptions fast_opts = base_opts;
  fast_opts.machine.name = "net-fast";
  fast_opts.machine.net_page_ms = base_opts.machine.net_page_ms / 4.0;
  static scenario::Testbed net_fast(fast_opts);

  const simdb::DbEngine& engine = balanced.db2_sf1();
  simdb::Workload ship = workload::MixUnits(
      "ship", balanced.NetIntensiveUnit(engine, balanced.tpch_sf1()), 8,
      balanced.CpuIntensiveUnit(engine, balanced.tpch_sf1()), 2);
  simdb::Workload crunch = workload::MixUnits(
      "crunch", balanced.CpuIntensiveUnit(engine, balanced.tpch_sf1()), 4,
      balanced.CpuLazyUnit(engine, balanced.tpch_sf1()), 4);
  std::vector<Tenant> tenants = {
      balanced.MakeTenant(engine, ship), balanced.MakeTenant(engine, crunch),
      balanced.MakeTenant(engine, ship), balanced.MakeTenant(engine, crunch)};

  std::vector<FleetMachine> machines = {
      FleetMachine{balanced.machine(), &balanced.pg_calibration(),
                   &balanced.db2_calibration()},
      FleetMachine{net_fast.machine(), &net_fast.pg_calibration(),
                   &net_fast.db2_calibration()}};

  FleetOptions opts;
  // Placement is under test here: generous headroom lets affinity beat
  // load balance, and migration stays off so the assignment is the
  // policy's alone.
  opts.placement.headroom = 3.0;
  opts.migrate = false;
  FleetRecommendation rec = FleetAdvisor(machines, tenants, opts).Recommend();
  EXPECT_EQ(rec.assignment[0], 1) << "shipping tenant 0 not on net-fast box";
  EXPECT_EQ(rec.assignment[2], 1) << "shipping tenant 2 not on net-fast box";
}

TEST(FleetAdvisorTest, ClassSharedDemandProbingIsBitIdentical) {
  // Two machine classes replicated to 16 boxes: class-shared probing must
  // produce the exact demand matrix of probing every machine on its own
  // while probing only one column per class. (Estimates are pure
  // functions of hardware + calibration, so classmates' columns are
  // bitwise equal by construction — this pins the memo keying, not the
  // estimator.)
  static scenario::Testbed tb;
  std::vector<Tenant> tenants = MixedTenants(tb, 4);

  std::vector<FleetMachine> machines;
  for (int m = 0; m < 16; ++m) {
    simvm::PhysicalMachine hw = tb.machine();
    hw.name = "box-" + std::to_string(m);  // names differ WITHIN a class
    if (m % 2 == 1) hw.cpu_ops_per_sec *= 2.0;  // second class: fast CPU
    machines.push_back(FleetMachine{hw});
  }

  FleetOptions opts;
  opts.threads = 1;
  FleetAdvisor fleet(machines, tenants, opts);
  std::vector<std::vector<double>> shared_demand = fleet.ProbeDemandMatrix();
  EXPECT_EQ(fleet.demand_columns_probed(), 2);

  // Reference: every machine probed on its own — its bound tenants in one
  // estimator, one EstimateMany of full-machine probes.
  WhatIfEstimatorOptions est_opts;
  est_opts.batch_threads = 1;
  ASSERT_EQ(shared_demand.size(), tenants.size());
  for (size_t m = 0; m < machines.size(); ++m) {
    std::vector<Tenant> bound;
    for (const Tenant& t : tenants) bound.push_back(machines[m].Bind(t));
    WhatIfCostEstimator estimator(machines[m].hardware, std::move(bound),
                                  est_opts);
    const int dims = machines[m].hardware.resources->dims();
    std::vector<TenantAllocation> probes;
    for (int i = 0; i < static_cast<int>(tenants.size()); ++i) {
      probes.push_back(TenantAllocation{i, simvm::ResourceVector::Full(dims)});
    }
    std::vector<double> column = estimator.EstimateMany(probes);
    for (size_t i = 0; i < tenants.size(); ++i) {
      ASSERT_EQ(shared_demand[i].size(), machines.size()) << i;
      EXPECT_EQ(shared_demand[i][m], column[i])
          << "tenant " << i << " machine " << m;
    }
  }
}

TEST(FleetAdvisorTest, DistinctCalibrationsAreDistinctClasses) {
  // Same hardware but different calibration bindings must NOT share a
  // demand column (per-machine calibration is part of the estimate).
  static scenario::Testbed tb;
  std::vector<Tenant> tenants = MixedTenants(tb, 2);
  std::vector<FleetMachine> machines = {
      FleetMachine{tb.machine()},
      FleetMachine{tb.machine(), &tb.pg_calibration(),
                   &tb.db2_calibration()}};
  FleetOptions opts;
  opts.threads = 1;
  FleetAdvisor fleet(machines, tenants, opts);
  fleet.ProbeDemandMatrix();
  EXPECT_EQ(fleet.demand_columns_probed(), 2);
}

}  // namespace
}  // namespace vdba::advisor
