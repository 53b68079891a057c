// The fleet_plan workload: a cold FleetAdvisor::Recommend over the
// 8-machine fleet. A run draws 64 tenant populations from its seed and
// plans them in turn for the whole window. A plan's cost depends sharply
// on its inputs (the migrations it accepts move its time by half), so the
// figures of a few populations would be a property of the seed; over 64
// the seed moves them by a few percent. Every plan of the window must
// equal its population's first plan bit for bit.
//
// The traced run adds a breakdown phase: population 0's plan without
// migration is rebuilt from the layers' public calls (demand probe,
// placement, one SearchStrategy::Run per machine over a TracingEstimator)
// with a span around each call. The rebuilt plan must equal the library's
// own bit for bit, which shows tracing changes nothing; alternating it
// with the untraced call gives the tracing overhead.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/allocation.h"
#include "advisor/fleet_advisor.h"
#include "advisor/search_strategy.h"
#include "bench.h"
#include "inputs.h"
#include "probe.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

using vdba::advisor::AdvisorOptions;
using vdba::advisor::EnumerationResult;
using vdba::advisor::FleetAdvisor;
using vdba::advisor::FleetOptions;
using vdba::advisor::FleetRecommendation;
using vdba::advisor::QosSpec;
using vdba::advisor::Recommendation;
using vdba::advisor::Tenant;
using vdba::advisor::TenantAllocation;
using vdba::advisor::WhatIfCostEstimator;
using vdba::simvm::ResourceVector;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Seeded tenant populations per run.
constexpr int kFleetPopulations = 64;
/// Plans of each set-up's warm-up (one plan alone would make setup_s
/// swing with the host from one plan to the next).
constexpr int kWarmupPlans = 4;
/// Untraced / traced pairs of the breakdown phase.
constexpr int kBreakdownPairs = 5;
/// Placement calls timed together (one call takes microseconds).
constexpr int kPlaceCalls = 2000;

/// The timed window: `op(k)` runs back to back on input sets k = 0, 1,
/// ..., sets - 1, 0, ... in whole cycles until `seconds` have passed and
/// at least three cycles ran. Each cycle notes the host's CPU steal.
struct Window {
  std::vector<double> latencies_ms;  // op i ran on set i % sets, cycle i / sets
  std::vector<double> cycle_per_sec, cycle_cpu_ms_per_op, cycle_steal;
  double steal = 0.0;
  int threads_peak = 0;
  int sets = 1;
  long ops() const { return static_cast<long>(latencies_ms.size()); }
  std::vector<bool> QuietCycles() const { return QuietUnits(cycle_steal); }
  /// Best latency of each input set over its repeats in the given cycles.
  std::vector<double> SetLatencies(const std::vector<bool>& cycles) const {
    std::vector<double> out(static_cast<size_t>(sets),
                            std::numeric_limits<double>::infinity());
    const size_t per_cycle = static_cast<size_t>(sets);
    for (size_t i = 0; i < latencies_ms.size(); ++i) {
      if (!cycles[i / per_cycle]) continue;
      double& best = out[i % per_cycle];
      best = std::min(best, latencies_ms[i]);
    }
    return out;
  }
  /// The timings over the given cycles. Every cycle repeats the same
  /// plans, and a disturbance only slows a plan, so the latency is the
  /// median across input sets of each set's best repeat and the throughput
  /// the best cycle's; CPU time leaves out stolen time and adds up, so CPU
  /// per operation is the cycles' total over their operations.
  EndToEnd Timings(const std::vector<bool>& cycles) const {
    EndToEnd e2e;
    e2e.latency_ms_p50 = Median(SetLatencies(cycles));
    int counted = 0;
    for (size_t c = 0; c < cycles.size(); ++c) {
      if (!cycles[c]) continue;
      ++counted;
      e2e.throughput_per_sec =
          std::max(e2e.throughput_per_sec, cycle_per_sec[c]);
      e2e.cpu_ms_per_op += cycle_cpu_ms_per_op[c];
    }
    e2e.cpu_ms_per_op /= counted;
    return e2e;
  }
};

Window RunWindow(int seconds, int sets, const ThreadPeakSampler& sampler,
                 Tracer* tracer, const std::function<void(int)>& op) {
  Window w;
  w.sets = sets;
  const HostTicks host0 = ReadHostTicks();
  const double start = Now();
  while (Now() - start < seconds || w.cycle_per_sec.size() < 3) {
    const HostTicks cycle_host0 = ReadHostTicks();
    const double cycle_start = Now();
    const double cpu0 = ProcessCpu() - sampler.cpu_seconds();
    for (int k = 0; k < sets; ++k) {
      Tracer::Scope span(tracer, "op", Tracer::kInherit, w.ops());
      const double t0 = Now();
      op(k);
      w.latencies_ms.push_back((Now() - t0) * 1e3);
    }
    const double cpu = ProcessCpu() - sampler.cpu_seconds() - cpu0;
    w.cycle_per_sec.push_back(sets / (Now() - cycle_start));
    w.cycle_cpu_ms_per_op.push_back(cpu * 1e3 / sets);
    w.cycle_steal.push_back(StealFraction(cycle_host0, ReadHostTicks()));
  }
  w.steal = StealFraction(host0, ReadHostTicks());
  w.threads_peak = sampler.peak();
  return w;
}

/// Reports the window's timings over its quiet cycles.
void ReportWindow(const Window& w, double objective, double qos_met_frac,
                  double setup_s, Report* report) {
  const std::vector<bool> quiet = w.QuietCycles();
  EndToEnd e2e = w.Timings(quiet);
  e2e.objective = objective;
  e2e.qos_met_frac = qos_met_frac;
  e2e.setup_s = setup_s;
  ReportEndToEnd(e2e, report);
  const EndToEnd all = w.Timings(std::vector<bool>(quiet.size(), true));
  std::printf("noise: host.steal_frac %.4f, gen.lag_ms_p99 0 (no schedule), "
              "process.threads_peak %d\n",
              w.steal, w.threads_peak);
  std::printf("cycle steal: min %.4f, median %.4f, max %.4f; %td of %zu "
              "cycles quiet; over all cycles: p50 %.3f ms, %.3f/s, cpu "
              "%.3f ms\n",
              *std::min_element(w.cycle_steal.begin(), w.cycle_steal.end()),
              Median(w.cycle_steal),
              *std::max_element(w.cycle_steal.begin(), w.cycle_steal.end()),
              std::count(quiet.begin(), quiet.end(), true), quiet.size(),
              all.latency_ms_p50, all.throughput_per_sec, all.cpu_ms_per_op);
  std::printf("best quiet ms per population:");
  for (double ms : w.SetLatencies(quiet)) std::printf(" %.1f", ms);
  std::printf("\n");
}

bool SameResult(const Recommendation& a, const Recommendation& b) {
  return a.allocations == b.allocations &&
         a.estimated_seconds == b.estimated_seconds &&
         a.objective == b.objective && a.violated_qos == b.violated_qos &&
         a.iterations == b.iterations;
}

bool SamePlan(const FleetRecommendation& a, const FleetRecommendation& b) {
  if (a.assignment != b.assignment || a.allocations != b.allocations ||
      a.estimated_seconds != b.estimated_seconds ||
      a.total_cost != b.total_cost || a.violated_qos != b.violated_qos ||
      a.migrations != b.migrations ||
      a.migration_attempts != b.migration_attempts ||
      a.machines.size() != b.machines.size()) {
    return false;
  }
  for (size_t m = 0; m < a.machines.size(); ++m) {
    if (a.machines[m].tenants != b.machines[m].tenants ||
        !SameResult(a.machines[m].recommendation,
                    b.machines[m].recommendation)) {
      return false;
    }
  }
  return true;
}

/// Counters of the estimators one rebuilt operation used.
struct EstimatorCounts {
  long probes = 0;
  long fanouts = 0;
  long hits = 0;
  long optimizer_calls = 0;
  long iterations = 0;

  void Add(const TracingEstimator& traced, const WhatIfCostEstimator& est,
           const EnumerationResult& res) {
    probes += traced.probes();
    fanouts += traced.fanouts();
    hits += est.cache_hits();
    optimizer_calls += est.optimizer_calls();
    iterations += res.iterations;
  }
  void Add(const EstimatorCounts& o) {
    probes += o.probes;
    fanouts += o.fanouts;
    hits += o.hits;
    optimizer_calls += o.optimizer_calls;
    iterations += o.iterations;
  }
};

/// One bin solve rebuilt from public calls, with the same estimator work
/// FleetAdvisor::SolveBin does: the strategy's Run, the default-allocation
/// estimates behind Recommend's estimated_improvement, and the saturation
/// probes at the result.
Recommendation TracedSolve(const vdba::simvm::PhysicalMachine& machine,
                           std::vector<Tenant> tenants,
                           const AdvisorOptions& options, Tracer* tracer,
                           int parent, long request, EstimatorCounts* counts) {
  Tracer::Scope advisor_span(tracer, "advisor", parent, request);
  std::vector<QosSpec> qos;
  for (const Tenant& t : tenants) qos.push_back(t.qos);
  const int n = static_cast<int>(tenants.size());
  WhatIfCostEstimator est(machine, std::move(tenants), options.estimator);
  TracingEstimator traced(&est, tracer);
  EnumerationResult res;
  {
    Tracer::Scope search_span(tracer, "search");
    res = vdba::advisor::MakeSearchStrategy(options.search)
              ->Run(&traced, qos, {});
  }
  const std::vector<ResourceVector> defaults =
      vdba::advisor::DefaultAllocation(n, traced.num_dims());
  for (int i = 0; i < n; ++i) {
    traced.EstimateSeconds(i, defaults[static_cast<size_t>(i)]);
  }
  std::vector<TenantAllocation> probes;
  for (int j = 0; j < n; ++j) {
    for (int d = 0; d < traced.num_dims(); ++d) {
      ResourceVector r = res.allocations[static_cast<size_t>(j)];
      r.set(d, 1.0);
      probes.push_back(TenantAllocation{j, r});
    }
  }
  traced.EstimateMany(probes);
  counts->Add(traced, est, res);
  Recommendation rec;
  rec.allocations = res.allocations;
  rec.estimated_seconds = res.tenant_costs;
  rec.objective = res.objective;
  rec.iterations = res.iterations;
  rec.violated_qos = res.violated_qos;
  return rec;
}

/// FleetAdvisor's bin capacity: the balanced per-machine load (machine
/// speed relative to each tenant's best machine) times the headroom.
std::vector<double> BalancedCapacity(
    const std::vector<std::vector<double>>& demand, double headroom) {
  const size_t p = demand.front().size();
  double total_best = 0.0;
  std::vector<double> speed(p, 0.0);
  for (const std::vector<double>& row : demand) {
    const double best = *std::min_element(row.begin(), row.end());
    total_best += best;
    for (size_t m = 0; m < p; ++m) {
      speed[m] += row[m] > 0.0 ? best / row[m] : 1.0;
    }
  }
  double total_speed = 0.0;
  for (double& s : speed) {
    s /= static_cast<double>(demand.size());
    total_speed += s;
  }
  return std::vector<double>(p, headroom * total_best / total_speed);
}

}  // namespace

// ---------------------------------------------------------------------------
// fleet_plan
// ---------------------------------------------------------------------------

void RunFleetPlan(const Args& args, Report* report) {
  FleetOptions options;  // FFD placement, migration repair on
  options.threads = 4;
  std::unique_ptr<FleetBed> bed;
  std::vector<std::vector<Tenant>> populations;
  // Set-up builds the fleet and the populations, and plans the first
  // kWarmupPlans populations once as the warm-up.
  const double setup_s = MedianSetupSeconds(kSetups, [&] {
    bed = MakeFleetBed();
    vdba::Rng rng(args.seed);
    populations.clear();
    for (int k = 0; k < kFleetPopulations; ++k) {
      populations.push_back(
          FleetTenants(bed->tenant_testbed(), kFleetTenants, &rng));
    }
    for (int k = 0; k < kWarmupPlans; ++k) {
      FleetAdvisor(bed->machines, populations[k], options).Recommend();
    }
  });

  Tracer tracer(args.trace);
  ThreadPeakSampler sampler;
  // The window's first cycle gives each population its first plan, which
  // every later plan of it must reproduce.
  std::vector<FleetRecommendation> firsts;
  firsts.reserve(kFleetPopulations);
  long mismatches = 0;
  ResetPeakRss();
  const Window w =
      RunWindow(args.seconds, kFleetPopulations, sampler, &tracer, [&](int k) {
        FleetRecommendation plan =
            FleetAdvisor(bed->machines, populations[k], options).Recommend();
        if (k == static_cast<int>(firsts.size())) {
          firsts.push_back(std::move(plan));
        } else if (!SamePlan(plan, firsts[k])) {
          ++mismatches;
        }
      });
  report->Count(w.ops(), mismatches);
  report->Expect(mismatches == 0,
                 std::to_string(mismatches) +
                     " plans differ from their population's first plan");
  double objective = 0.0;
  long limited = 0, violated = 0, migrations = 0, attempts = 0;
  for (const FleetRecommendation& plan : firsts) {
    objective += plan.total_cost / kFleetPopulations;
    for (int i = 0; i < kFleetTenants; ++i) limited += QosLimited(i);
    violated += static_cast<long>(plan.violated_qos.size());
    migrations += plan.migrations;
    attempts += plan.migration_attempts;
  }
  const double qos_met_frac =
      1.0 - static_cast<double>(violated) / static_cast<double>(limited);
  std::printf("fleet_plan: %ld plans over %d populations, mean objective "
              "%.6f, %ld/%ld QoS limits violated, %ld/%ld migrations "
              "accepted\n",
              w.ops(), kFleetPopulations, objective, violated, limited,
              migrations, attempts);
  if (!args.trace) {
    ReportWindow(w, objective, qos_met_frac, setup_s, report);
    return;
  }

  // Breakdown of population 0 with migration off: demand probe +
  // placement + one solve per machine, each rebuilt from public calls.
  const std::vector<Tenant>& tenants = populations[0];
  FleetOptions no_migration = options;
  no_migration.migrate = false;
  const FleetRecommendation reference =
      FleetAdvisor(bed->machines, tenants, no_migration).Recommend();
  AdvisorOptions bin_options = options.advisor;
  bin_options.estimator.batch_threads = 1;  // as FleetAdvisor's bin solves
  vdba::ThreadPool pool(options.threads);
  std::vector<double> untraced_ms, traced_ms, probe_ms, bins_ms;
  EstimatorCounts counts;
  bool identical = true;
  for (int pair = 0; pair < kBreakdownPairs; ++pair) {
    double t0 = Now();
    FleetRecommendation plain =
        FleetAdvisor(bed->machines, tenants, no_migration).Recommend();
    untraced_ms.push_back((Now() - t0) * 1e3);
    identical = identical && SamePlan(plain, reference);

    const long request = w.ops() + pair;
    t0 = Now();
    Tracer::Scope op(&tracer, "op.breakdown", Tracer::kInherit, request);
    FleetAdvisor fleet(bed->machines, tenants, no_migration);
    vdba::advisor::PlacementInput input;
    {
      Tracer::Scope span(&tracer, "fleet.demand_probe");
      const double p0 = Now();
      input.demand = fleet.ProbeDemandMatrix();
      probe_ms.push_back((Now() - p0) * 1e3);
    }
    std::vector<int> assignment;
    {
      Tracer::Scope span(&tracer, "fleet.place");
      input.num_machines = kFleetMachines;
      input.capacity = BalancedCapacity(input.demand,
                                        no_migration.placement.headroom);
      assignment = vdba::advisor::MakePlacementPolicy(no_migration.placement)
                       ->Place(input);
    }
    identical = identical && assignment == reference.assignment;
    std::vector<Recommendation> bins(kFleetMachines);
    std::vector<EstimatorCounts> bin_counts(kFleetMachines);
    {
      Tracer::Scope span(&tracer, "fleet.bin_solve");
      const double b0 = Now();
      pool.ParallelFor(kFleetMachines, [&](size_t m) {
        const vdba::advisor::FleetMachine& fm = bed->machines[m];
        std::vector<Tenant> bound;
        for (size_t i = 0; i < tenants.size(); ++i) {
          if (assignment[i] != static_cast<int>(m)) continue;
          Tenant t = tenants[i];
          if (const auto* model = fm.CalibrationFor(t.engine->flavor())) {
            t.calibration = model;
          }
          bound.push_back(std::move(t));
        }
        if (bound.empty()) return;
        bins[m] = TracedSolve(fm.hardware, std::move(bound), bin_options,
                              &tracer, span.id(), request, &bin_counts[m]);
      });
      bins_ms.push_back((Now() - b0) * 1e3);
    }
    traced_ms.push_back((Now() - t0) * 1e3);
    for (int m = 0; m < kFleetMachines; ++m) {
      counts.Add(bin_counts[m]);
      const Recommendation& want = reference.machines[m].recommendation;
      identical = identical && bins[m].allocations == want.allocations &&
                  bins[m].estimated_seconds == want.estimated_seconds &&
                  bins[m].violated_qos == want.violated_qos;
    }
  }
  report->Expect(identical,
                 "the traced breakdown reproduces FleetAdvisor's plan");

  // Placement alone takes microseconds: time many calls together.
  vdba::advisor::PlacementInput input;
  input.demand = FleetAdvisor(bed->machines, tenants, no_migration)
                     .ProbeDemandMatrix();
  input.num_machines = kFleetMachines;
  input.capacity =
      BalancedCapacity(input.demand, no_migration.placement.headroom);
  const std::unique_ptr<vdba::advisor::PlacementPolicy> policy =
      vdba::advisor::MakePlacementPolicy(options.placement);
  bool placement_stable = true;
  const double place0 = Now();
  for (int i = 0; i < kPlaceCalls; ++i) {
    placement_stable = placement_stable &&
                       policy->Place(input) == reference.assignment;
  }
  const double place_ms = (Now() - place0) * 1e3 / kPlaceCalls;
  report->Expect(placement_stable, "repeated placement is stable");

  // Counts and busy times per rebuilt plan.
  const std::vector<Span> spans = tracer.spans();
  const double per_op = 1.0 / kBreakdownPairs;
  report->Metric("simdb.whatif_optimizations", counts.optimizer_calls * per_op,
                 "count");
  report->Metric("estimator.busy_ms",
                 TotalSeconds(spans, "estimator") * 1e3 * per_op, "ms");
  report->Metric("estimator.fanouts", counts.fanouts * per_op, "count");
  report->Metric("estimator.probes", counts.probes * per_op, "count");
  report->Metric("estimator.hit_ratio",
                 static_cast<double>(counts.hits) / counts.probes, "ratio");
  report->Metric("search.self_ms",
                 SelfSeconds(spans, "search") * 1e3 * per_op, "ms");
  report->Metric("search.iterations", counts.iterations * per_op, "count");
  report->Metric("fleet.demand_probe_ms", Median(probe_ms), "ms");
  report->Metric("fleet.place_ms", place_ms, "ms");
  report->Metric("fleet.bin_solve_ms", Median(bins_ms), "ms");
  // Population 0's best plan in the window against its best plan without
  // migration: what the migration loop adds.
  report->Metric("fleet.migration_ms",
                 w.SetLatencies(w.QuietCycles())[0] -
                     *std::min_element(untraced_ms.begin(), untraced_ms.end()),
                 "ms");
  report->Metric("fleet.migration_attempts", firsts[0].migration_attempts,
                 "count");
  report->Metric("fleet.migration_accept_ratio",
                 firsts[0].migration_attempts > 0
                     ? static_cast<double>(firsts[0].migrations) /
                           firsts[0].migration_attempts
                     : 0.0,
                 "ratio");
  // The service layer is not exercised, and a plan has no due time.
  report->Metric("service.handle_ms.drift", 0.0, "ms");
  report->Metric("service.queue_wait_ms_p50", 0.0, "ms");
  report->Metric("gen.lag_ms_p99", 0.0, "ms");
  report->Metric("process.threads_peak", sampler.peak(), "count");
  report->Metric("host.steal_frac", w.steal, "ratio");
  report->Metric("trace.overhead_frac",
                 Median(traced_ms) / Median(untraced_ms) - 1.0, "ratio");
  report->Expect(tracer.Write(SpanPath(args)), "write " + SpanPath(args));
}

}  // namespace perfbench
