// Cross-tenant batched enumeration and fleet-scale placement (beyond the
// paper: fleets of tenants, then fleets of machines).
//
// Arm 1 sweeps N in {2, 4, 8, 16, 32} heterogeneous tenants on the M = 3
// machine (CPU, memory, I/O bandwidth) and runs the greedy enumerator
// twice per N: once with the batched estimator (every iteration's full
// cross-tenant move frontier fanned out over the thread pool via
// CostEstimator::EstimateMany) and once with the estimator pinned to the
// sequential EstimateMany default. The final allocations must be
// bit-identical — batching is a pure scheduling change — and the recorded
// wall-clock speedup is the original tentpole acceptance metric (>= 2x at
// N = 16 on a multi-core host; on a single-core host the fan-out
// degenerates to ~1x, which the JSON also records via the
// hardware_threads metric).
//
// Arm 2 (fleet) sweeps (machines x tenants) in {2x16, 4x32, 8x64} over a
// heterogeneous M = 4 fleet (balanced / net-fast / cpu-fast classes, each
// class calibrated on its own box) and solves it with FleetAdvisor twice
// per policy: with the cross-machine migration repair loop and without.
// Acceptance: at 8x64 migration repair must beat migration-disabled
// placement on total estimated cost for at least one placement policy,
// and a single-machine fleet must reproduce the plain advisor's
// recommendation bit-for-bit.
//
// Arm 3 times FleetAdvisor's class-shared demand-matrix probing
// (machines with identical hardware + calibrations share one what-if
// probe column) against probing every machine on its own, written here
// from public estimator calls: the matrices must be bit-identical and the
// wall-clock speedup tracks distinct-classes / machines.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/cost_estimator.h"
#include "advisor/fleet_advisor.h"
#include "advisor/greedy_enumerator.h"
#include "bench_common.h"
#include "util/thread_pool.h"
#include "workload/tpch.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

namespace {

/// WhatIfCostEstimator forced onto the sequential EstimateMany default:
/// the tenant-at-a-time baseline that batched enumeration must match
/// bit-for-bit while beating it on wall clock.
class SequentialWhatIfEstimator : public advisor::WhatIfCostEstimator {
 public:
  using WhatIfCostEstimator::WhatIfCostEstimator;
  std::vector<double> EstimateMany(
      std::span<const advisor::TenantAllocation> batch) override {
    return advisor::CostEstimator::EstimateMany(batch);
  }
};

/// N heterogeneous tenants: engines alternate between PostgreSQL-style
/// and DB2-style flavors, workloads mix DSS queries with different
/// frequencies so every tenant's what-if probe costs a different amount
/// (the LPT-scheduling case).
std::vector<advisor::Tenant> MakeTenants(const scenario::Testbed& tb, int n) {
  const int query_pool[] = {1, 3, 6, 12, 14, 18, 21};
  std::vector<advisor::Tenant> tenants;
  tenants.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    simdb::Workload w;
    const int statements = 4 + i % 4;
    for (int s = 0; s <= statements; ++s) {
      int qn = query_pool[(i + 2 * s) % 7];
      w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), qn),
                     1.0 + (i + s) % 4);
    }
    const simdb::DbEngine& engine = i % 2 ? tb.db2_sf1() : tb.pg_sf1();
    tenants.push_back(tb.MakeTenant(engine, w));
  }
  return tenants;
}

/// Enumerator knobs of the sweep: a coarse-to-fine delta schedule on every
/// dimension (the annealing path) and a min share small enough for N = 32
/// tenants to keep moving below the 1/N starting point.
advisor::EnumeratorOptions SweepOptions() {
  advisor::EnumeratorOptions opts;
  opts.min_share = 0.01;
  // Schedules for all four known dimensions; a machine exposing fewer
  // simply never reads the higher slots.
  for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
    opts.deltas[static_cast<size_t>(d)] = {0.05, 0.02};
  }
  return opts;
}

double MedianOfThreeSeconds(const std::function<double()>& run) {
  double a = run(), b = run(), c = run();
  double lo = std::min(a, std::min(b, c));
  double hi = std::max(a, std::max(b, c));
  return a + b + c - lo - hi;
}

/// One batched-vs-sequential comparison on a tenant set.
struct PairTiming {
  double seq_seconds = 0.0;
  double batch_seconds = 0.0;
  int iterations = 0;
  bool identical = false;
  double speedup() const {
    return batch_seconds > 0.0 ? seq_seconds / batch_seconds : 0.0;
  }
};

/// Times the greedy enumerator over `tenants` with the batched estimator
/// and with the sequential baseline (median of three runs each; a fresh
/// estimator per timed run, so the speedup is about uncached what-if
/// probes and both paths do identical optimizer work) and checks the
/// final allocations are bit-identical. `warm_up` interleaves one
/// untimed pair first to warm allocators and catalog caches.
PairTiming TimeBatchedVsSequential(const simvm::PhysicalMachine& machine,
                                   const std::vector<advisor::Tenant>& tenants,
                                   const advisor::GreedyEnumerator& greedy,
                                   bool warm_up) {
  std::vector<advisor::QosSpec> qos(tenants.size());
  advisor::EnumerationResult seq_result, batch_result;
  auto run_sequential = [&] {
    SequentialWhatIfEstimator est(machine, tenants);
    auto start = std::chrono::steady_clock::now();
    seq_result = greedy.Run(&est, qos);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto run_batched = [&] {
    advisor::WhatIfCostEstimator est(machine, tenants);
    auto start = std::chrono::steady_clock::now();
    batch_result = greedy.Run(&est, qos);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  if (warm_up) {
    run_sequential();
    run_batched();
  }
  PairTiming timing;
  timing.seq_seconds = MedianOfThreeSeconds(run_sequential);
  timing.batch_seconds = MedianOfThreeSeconds(run_batched);
  timing.iterations = batch_result.iterations;
  timing.identical = seq_result.iterations == batch_result.iterations &&
                     seq_result.allocations == batch_result.allocations;
  return timing;
}

/// One heterogeneous machine class: testbed options plus the Testbed that
/// calibrates both DBMS flavors on exactly that hardware (§4.3 is
/// per-DBMS-per-machine, so every class carries its own models).
struct MachineClass {
  std::string name;
  std::unique_ptr<scenario::Testbed> testbed;
};

/// Balanced / net-fast (4x NIC) / cpu-fast (1.5x cores) classes under the
/// M = 4 resource model.
std::vector<MachineClass> MakeMachineClasses() {
  auto base = [] {
    scenario::TestbedOptions opts;
    opts.machine.resources = &simvm::ResourceModel::CpuMemIoNet();
    opts.calibration.io_shares = {0.35, 0.5, 0.7, 1.0};
    opts.calibration.net_shares = {0.35, 0.5, 0.7, 1.0};
    opts.with_sf10 = false;
    opts.with_tpcc = false;
    return opts;
  };
  std::vector<MachineClass> classes;
  scenario::TestbedOptions balanced = base();
  balanced.machine.name = "balanced";
  classes.push_back(
      {"balanced", std::make_unique<scenario::Testbed>(balanced)});
  scenario::TestbedOptions net_fast = base();
  net_fast.machine.name = "net-fast";
  net_fast.machine.net_page_ms /= 4.0;
  classes.push_back(
      {"net-fast", std::make_unique<scenario::Testbed>(net_fast)});
  scenario::TestbedOptions cpu_fast = base();
  cpu_fast.machine.name = "cpu-fast";
  cpu_fast.machine.cpu_ops_per_sec *= 1.5;
  classes.push_back(
      {"cpu-fast", std::make_unique<scenario::Testbed>(cpu_fast)});
  return classes;
}

/// P machines cycling through the classes (a skewed but repeatable mix).
std::vector<advisor::FleetMachine> MakeFleet(
    const std::vector<MachineClass>& classes, int p) {
  std::vector<advisor::FleetMachine> fleet;
  fleet.reserve(static_cast<size_t>(p));
  for (int m = 0; m < p; ++m) {
    const MachineClass& cls = classes[static_cast<size_t>(m) %
                                      classes.size()];
    advisor::FleetMachine fm;
    fm.hardware = cls.testbed->machine();
    fm.hardware.name = cls.name + "-" + std::to_string(m);
    fm.pg_calibration = &cls.testbed->pg_calibration();
    fm.db2_calibration = &cls.testbed->db2_calibration();
    fleet.push_back(fm);
  }
  return fleet;
}

/// Fleet tenant population: the arm-1 heterogeneous mix plus a
/// data-shipping statement on every other tenant, so the net-fast class
/// is genuinely preferable for half the population.
std::vector<advisor::Tenant> MakeFleetTenants(const scenario::Testbed& tb,
                                              int n) {
  std::vector<advisor::Tenant> tenants = MakeTenants(tb, n);
  for (size_t i = 0; i < tenants.size(); i += 2) {
    tenants[i].workload.AddStatement(
        workload::TpchReplicationExtract(tb.tpch_sf1()), 4.0);
  }
  return tenants;
}

/// Solves `fleet` x `tenants` with and without migration repair under one
/// placement policy; returns (latency of the migrating solve, relative
/// cost improvement migration bought).
struct FleetTiming {
  double solve_seconds = 0.0;
  double migration_improvement = 0.0;
  int migrations = 0;
  advisor::FleetRecommendation rec;
};

FleetTiming SolveFleet(const std::vector<advisor::FleetMachine>& fleet,
                       const std::vector<advisor::Tenant>& tenants,
                       const std::string& policy) {
  advisor::FleetOptions off;
  off.placement.policy = policy;
  off.migrate = false;
  advisor::FleetRecommendation base =
      advisor::FleetAdvisor(fleet, tenants, off).Recommend();

  advisor::FleetOptions on = off;
  on.migrate = true;
  auto start = std::chrono::steady_clock::now();
  advisor::FleetRecommendation repaired =
      advisor::FleetAdvisor(fleet, tenants, on).Recommend();
  FleetTiming timing;
  timing.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  timing.migration_improvement =
      (base.total_cost - repaired.total_cost) / base.total_cost;
  timing.migrations = repaired.migrations;
  timing.rec = std::move(repaired);
  return timing;
}

}  // namespace

int main() {
  PrintHeader("scale_tenants",
              "no paper counterpart: cross-tenant batched greedy "
              "enumeration must return the sequential enumeration's exact "
              "allocations while fanning each iteration's move frontier "
              "across the thread pool");

  scenario::TestbedOptions tbopts;
  tbopts.machine.resources = &simvm::ResourceModel::CpuMemIo();
  tbopts.calibration.io_shares = {0.35, 0.5, 0.7, 1.0};
  tbopts.with_sf10 = false;
  tbopts.with_tpcc = false;
  scenario::Testbed tb(tbopts);

  const advisor::EnumeratorOptions opts = SweepOptions();
  const advisor::GreedyEnumerator greedy(opts);

  TablePrinter t({"N", "sequential (ms)", "batched (ms)", "speedup",
                  "iterations", "identical"});
  bool all_identical = true;
  double speedup_n16 = 0.0;
  for (int n : {2, 4, 8, 16, 32}) {
    std::vector<advisor::Tenant> tenants = MakeTenants(tb, n);
    PairTiming timing =
        TimeBatchedVsSequential(tb.machine(), tenants, greedy,
                                /*warm_up=*/n == 2);
    all_identical = all_identical && timing.identical;
    if (n == 16) speedup_n16 = timing.speedup();
    t.AddRow({std::to_string(n),
              TablePrinter::Num(timing.seq_seconds * 1e3, 1),
              TablePrinter::Num(timing.batch_seconds * 1e3, 1),
              TablePrinter::Num(timing.speedup(), 2) + "x",
              std::to_string(timing.iterations),
              timing.identical ? "yes" : "NO (bug)"});

    const std::string suffix = "_n" + std::to_string(n);
    RecordMetric("sequential_ms" + suffix, timing.seq_seconds * 1e3);
    RecordMetric("batched_ms" + suffix, timing.batch_seconds * 1e3);
    RecordMetric("greedy_batch_speedup" + suffix, timing.speedup());
  }
  t.Print();

  // --- M = 4 arm: the network dimension rides the same batched frontier
  // with zero enumerator/estimator changes. Half the tenants gain a
  // data-shipping statement so the fourth dimension has something to
  // arbitrate; batched and sequential must still agree bit-for-bit. ---
  {
    simvm::PhysicalMachine m4 = tb.machine();
    m4.resources = &simvm::ResourceModel::CpuMemIoNet();
    std::vector<advisor::Tenant> tenants4 = MakeTenants(tb, 8);
    for (size_t i = 0; i < tenants4.size(); i += 2) {
      tenants4[i].workload.AddStatement(
          workload::TpchReplicationExtract(tb.tpch_sf1()), 2.0);
    }
    PairTiming timing = TimeBatchedVsSequential(m4, tenants4, greedy,
                                                /*warm_up=*/false);
    all_identical = all_identical && timing.identical;
    RecordMetric("greedy_batch_speedup_m4_n8", timing.speedup());
    std::printf("M=4 arm (N=8, net-mixed): %.2fx speedup, identical "
                "allocations: %s\n",
                timing.speedup(), timing.identical ? "yes" : "NO (bug)");
  }

  // --- Fleet arm: heterogeneous machines x tenants, migration repair on
  // vs off, per placement policy. ---
  std::printf("\nfleet arm: heterogeneous M = 4 fleet "
              "(balanced / net-fast / cpu-fast)\n");
  std::vector<MachineClass> classes = MakeMachineClasses();
  const scenario::Testbed& fleet_tb = *classes[0].testbed;

  TablePrinter ft({"machines", "tenants", "policy", "solve (ms)",
                   "migrations", "migration win"});
  bool migration_win_8x64 = false;
  for (auto [p, n] : {std::pair{2, 16}, {4, 32}, {8, 64}}) {
    std::vector<advisor::FleetMachine> fleet = MakeFleet(classes, p);
    std::vector<advisor::Tenant> tenants = MakeFleetTenants(fleet_tb, n);
    for (const std::string& policy :
         {std::string("first_fit_decreasing"), std::string("round_robin")}) {
      FleetTiming timing = SolveFleet(fleet, tenants, policy);
      ft.AddRow({std::to_string(p), std::to_string(n), policy,
                 TablePrinter::Num(timing.solve_seconds * 1e3, 1),
                 std::to_string(timing.migrations),
                 TablePrinter::Pct(timing.migration_improvement, 2)});
      const std::string suffix =
          (policy == "round_robin" ? std::string("_rr") : std::string("_ffd")) +
          "_p" + std::to_string(p) + "_t" + std::to_string(n);
      RecordMetric("fleet_solve_latency_ms" + suffix,
                   timing.solve_seconds * 1e3);
      RecordMetric("fleet_migration_improvement" + suffix,
                   timing.migration_improvement);
      if (p == 8 && timing.migration_improvement > 0.0) {
        migration_win_8x64 = true;
      }
    }
  }
  ft.Print();
  RecordMetric("fleet_migration_wins_8x64", migration_win_8x64 ? 1.0 : 0.0);

  // --- Probe-sharing arm: 8 machines cycling through the 3 classes, so
  // class sharing probes 3 demand columns instead of 8. The matrices must
  // be bit-identical — classmates copy the representative's column. ---
  bool probe_sharing_identical = true;
  {
    const int p = 8;
    std::vector<advisor::FleetMachine> fleet = MakeFleet(classes, p);
    std::vector<advisor::Tenant> tenants = MakeFleetTenants(fleet_tb, 16);
    const size_t t = tenants.size();
    auto elapsed = [](std::chrono::steady_clock::time_point start) {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    // Unshared arm: the work FleetAdvisor would do without the class memo
    // — one estimator per machine over its bound tenants, one EstimateMany
    // of full-machine probes per column, columns fanned over a pool of the
    // fleet's default size.
    std::vector<std::vector<double>> unshared_demand(
        t, std::vector<double>(static_cast<size_t>(p)));
    double unshared_s = 0.0;
    {
      const auto start = std::chrono::steady_clock::now();
      ThreadPool pool(advisor::FleetOptions().threads);
      pool.ParallelFor(static_cast<size_t>(p), [&](size_t m) {
        const advisor::FleetMachine& machine = fleet[m];
        std::vector<advisor::Tenant> bound;
        bound.reserve(t);
        for (const advisor::Tenant& tenant : tenants) {
          bound.push_back(machine.Bind(tenant));
        }
        advisor::WhatIfEstimatorOptions est_opts;
        est_opts.batch_threads = 1;
        advisor::WhatIfCostEstimator estimator(machine.hardware,
                                               std::move(bound), est_opts);
        const int dims = machine.hardware.resources->dims();
        std::vector<advisor::TenantAllocation> probes;
        probes.reserve(t);
        for (size_t i = 0; i < t; ++i) {
          probes.push_back(advisor::TenantAllocation{
              static_cast<int>(i), simvm::ResourceVector::Full(dims)});
        }
        std::vector<double> est = estimator.EstimateMany(probes);
        for (size_t i = 0; i < t; ++i) unshared_demand[i][m] = est[i];
      });
      unshared_s = elapsed(start);
    }
    const int unshared_cols = p;

    advisor::FleetAdvisor adv(fleet, tenants);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::vector<double>> shared_demand = adv.ProbeDemandMatrix();
    const double shared_s = elapsed(start);
    const int shared_cols = adv.demand_columns_probed();
    probe_sharing_identical = shared_demand == unshared_demand;
    double sharing_speedup = shared_s > 0.0 ? unshared_s / shared_s : 0.0;
    std::printf("demand probe sharing (8 machines, 3 classes, 16 tenants): "
                "%d -> %d columns probed, %.1f ms -> %.1f ms (%.2fx), "
                "identical matrices: %s\n",
                unshared_cols, shared_cols, unshared_s * 1e3, shared_s * 1e3,
                sharing_speedup,
                probe_sharing_identical ? "yes" : "NO (bug)");
    RecordMetric("fleet_demand_probe_sharing_speedup", sharing_speedup);
    RecordMetric("fleet_demand_probe_identical",
                 probe_sharing_identical ? 1.0 : 0.0);
    RecordMetric("fleet_demand_columns_unshared", unshared_cols);
    RecordMetric("fleet_demand_columns_shared", shared_cols);
  }

  // Single-PM parity: a fleet of one box must reproduce the plain
  // advisor's recommendation bit-for-bit.
  bool single_pm_identical = true;
  {
    std::vector<advisor::Tenant> tenants = MakeFleetTenants(fleet_tb, 8);
    advisor::VirtualizationDesignAdvisor plain(fleet_tb.machine(), tenants);
    advisor::Recommendation want = plain.Recommend();
    advisor::FleetAdvisor single(
        {advisor::FleetMachine{fleet_tb.machine()}}, tenants);
    advisor::FleetRecommendation got = single.Recommend();
    single_pm_identical =
        got.allocations == want.allocations &&
        got.estimated_seconds == want.estimated_seconds &&
        got.violated_qos == want.violated_qos;
    RecordMetric("fleet_single_pm_identical", single_pm_identical ? 1.0 : 0.0);
    std::printf("single-PM fleet identical to plain advisor: %s\n",
                single_pm_identical ? "yes" : "NO (bug)");
  }

  RecordMetric("identical_allocations", all_identical ? 1.0 : 0.0);
  RecordMetric("hardware_threads",
               static_cast<double>(ThreadPool::DefaultThreads()));
  std::printf("batched vs sequential at N=16: %.2fx (identical allocations: "
              "%s; %d worker threads)\n",
              speedup_n16, all_identical ? "yes" : "NO",
              ThreadPool::DefaultThreads());
  std::printf("fleet migration win at 8x64: %s\n",
              migration_win_8x64 ? "yes" : "NO (bug)");
  PrintFooter();
  return all_identical && single_pm_identical && migration_win_8x64 &&
                 probe_sharing_identical
             ? 0
             : 1;
}
