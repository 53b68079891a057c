// Resident-service event handling vs batch full re-solve (beyond the
// paper; see docs/service.md).
//
// The AdvisorService's pitch is that one tenant event should cost an
// incremental warm repair — targeted cache invalidation + finest-step
// search from the incumbent on ONE machine — not a from-scratch fleet
// solve. This harness builds the 8x64 fleet of scale_tenants' fleet arm
// (8 machines cycling balanced / net-fast / cpu-fast classes, 64
// heterogeneous tenants), streams 63 arrivals through the service to
// reach a warm steady state, then times one arrival, one genuine drift,
// one no-op drift, and one departure against the cold alternative: a
// full FleetAdvisor::Recommend() over the post-event tenant set.
//
// Recorded per event kind: event_admission_latency_ms_warm_<kind> /
// _cold_<kind> and service_warm_speedup_<kind>. Acceptance: at 8x64 the
// warm arrival is >= 5x below the cold full re-solve, the warm fleet
// objective stays within 25% of the cold solve's, warm handling
// introduces no QoS violation the cold solve avoids, and a no-op drift
// returns the incumbent allocation bit-identically.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/fleet_advisor.h"
#include "bench_common.h"
#include "service/advisor_service.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/tpch.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

namespace {

constexpr int kMachines = 8;
constexpr int kTenants = 64;

struct MachineClass {
  std::string name;
  std::unique_ptr<scenario::Testbed> testbed;
};

/// The scale_tenants fleet classes: balanced, a 4x faster NIC, 1.5x CPU.
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

std::vector<advisor::FleetMachine> MakeFleet(
    const std::vector<MachineClass>& classes, int p) {
  std::vector<advisor::FleetMachine> fleet;
  fleet.reserve(static_cast<size_t>(p));
  for (int m = 0; m < p; ++m) {
    const MachineClass& cls =
        classes[static_cast<size_t>(m) % classes.size()];
    advisor::FleetMachine fm;
    fm.hardware = cls.testbed->machine();
    fm.hardware.name = cls.name + "-" + std::to_string(m);
    fm.pg_calibration = &cls.testbed->pg_calibration();
    fm.db2_calibration = &cls.testbed->db2_calibration();
    fleet.push_back(fm);
  }
  return fleet;
}

/// The scale_tenants fleet population: heterogeneous DSS mixes, a
/// data-shipping statement on every other tenant, and a degradation
/// limit on every eighth so QoS verdicts are part of the comparison.
std::vector<advisor::Tenant> MakeFleetTenants(const scenario::Testbed& tb,
                                              int n) {
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
    if (i % 2 == 0) {
      w.AddStatement(workload::TpchReplicationExtract(tb.tpch_sf1()), 4.0);
    }
    advisor::QosSpec qos;
    if (i % 8 == 0) qos.degradation_limit = 6.0;
    const simdb::DbEngine& engine = i % 2 ? tb.db2_sf1() : tb.pg_sf1();
    tenants.push_back(tb.MakeTenant(engine, w, qos));
  }
  return tenants;
}

/// The shared move grid: scale_tenants' coarse-to-fine schedule, so warm
/// and cold solves search the same space.
advisor::AdvisorOptions SolveOptions() {
  advisor::AdvisorOptions options;
  options.search.enumerator.min_share = 0.01;
  for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
    options.search.enumerator.deltas[static_cast<size_t>(d)] = {0.05, 0.02};
  }
  return options;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cold comparator: a full FleetAdvisor solve of `tenants`, timed.
/// Migration is off — the event comparison is repair vs plain re-solve.
std::pair<double, advisor::FleetRecommendation> ColdSolve(
    const std::vector<advisor::FleetMachine>& fleet,
    const std::vector<advisor::Tenant>& tenants) {
  advisor::FleetOptions options;
  options.advisor = SolveOptions();
  options.migrate = false;
  double start = NowSeconds();
  advisor::FleetAdvisor cold(fleet, tenants, options);
  advisor::FleetRecommendation rec = cold.Recommend();
  return {NowSeconds() - start, std::move(rec)};
}

struct EventTiming {
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  double warm_objective = 0.0;
  double cold_objective = 0.0;
  size_t warm_violations = 0;
  size_t cold_violations = 0;
  double speedup() const { return warm_ms > 0.0 ? cold_ms / warm_ms : 0.0; }
};

// ---------------------------------------------------------------------------
// Multi-worker arms (PR: sharded event loop)
// ---------------------------------------------------------------------------

/// A drifted workload for tenant `id`, deterministic in (id, variant) so
/// every worker-count arm replays the exact same schedule.
simdb::Workload BurstWorkload(const scenario::Testbed& tb, int id,
                              int variant) {
  const int query_pool[] = {1, 3, 6, 12, 14, 18, 21};
  simdb::Workload w;
  w.AddStatement(
      workload::TpchQuery(tb.tpch_sf1(),
                          query_pool[(id + 3 * variant) % 7]),
      1.0 + (id + variant) % 5);
  w.AddStatement(
      workload::TpchQuery(tb.tpch_sf1(), query_pool[(id + variant) % 7]),
      2.0);
  return w;
}

struct WorkerArm {
  bool ok = false;
  double burst_seconds = 0.0;
  long burst_events = 0;
  service::FleetSnapshot snap;
  double throughput() const {
    return burst_seconds > 0.0 ? burst_events / burst_seconds : 0.0;
  }
};

/// One fresh service runs the SAME event schedule at `workers`: 64
/// arrivals to the warm steady state, then a timed burst of drifts
/// submitted without waiting (so lanes genuinely backlog), then 8
/// departures. `duplicate_storm` switches the burst to the coalescing
/// schedule: each of 32 tenants re-reports ONE new workload 6 times
/// behind a Reconfigure plug (the storm queues up while the plug runs,
/// and the dispatcher then routes it into the lanes while the first
/// repairs run, so later runs sit complete in their lane when their
/// head pops).
WorkerArm RunWorkerArm(const std::vector<advisor::FleetMachine>& fleet,
                       const std::vector<advisor::Tenant>& tenants,
                       const scenario::Testbed& tb, int workers,
                       bool coalesce, bool duplicate_storm) {
  WorkerArm arm;
  service::ServiceOptions options;
  options.advisor = SolveOptions();
  // Apples-to-apples across worker counts: the same estimator pool per
  // repair everywhere (batch_threads = 1, one worker joined by the
  // repairing thread; the sharded service sets this itself at
  // workers > 1), so the arms differ ONLY in lane concurrency.
  options.advisor.estimator.batch_threads = 1;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  options.workers = workers;
  options.coalesce_drift = coalesce;
  service::AdvisorService svc(fleet, options);

  for (int i = 0; i < kTenants; ++i) {
    service::EventOutcome out =
        svc.SubmitArrival(tenants[static_cast<size_t>(i)]).get();
    if (!out.ok) {
      std::printf("w%d arm: arrival %d refused: %s\n", workers, i,
                  out.error.c_str());
      return arm;
    }
  }

  std::vector<std::future<service::EventOutcome>> futures;
  double start = NowSeconds();
  if (duplicate_storm) {
    futures.push_back(svc.SubmitReconfigure());
    for (int id = 0; id < 32; ++id) {
      for (int d = 0; d < 6; ++d) {
        futures.push_back(svc.SubmitDrift(id, BurstWorkload(tb, id, 9)));
      }
    }
  } else {
    constexpr int kBurst = 192;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      const int id = (i * 7) % kTenants;  // gcd(7,64)=1: all tenants cycle
      futures.push_back(
          svc.SubmitDrift(id, BurstWorkload(tb, id, 1 + i / kTenants)));
    }
  }
  for (std::future<service::EventOutcome>& f : futures) {
    service::EventOutcome out = f.get();
    if (!out.ok) {
      std::printf("w%d arm: burst event refused: %s\n", workers,
                  out.error.c_str());
      return arm;
    }
  }
  arm.burst_seconds = NowSeconds() - start;
  arm.burst_events = static_cast<long>(futures.size());

  if (!duplicate_storm) {
    for (int k = 0; k < 8; ++k) {
      service::EventOutcome out = svc.SubmitDeparture(8 * k + 3).get();
      if (!out.ok) {
        std::printf("w%d arm: departure refused: %s\n", workers,
                    out.error.c_str());
        return arm;
      }
    }
  }
  arm.snap = svc.Snapshot();
  arm.ok = true;
  return arm;
}

/// Bitwise equality of everything a schedule must determine
/// (coalesced_drifts excluded: it describes batching, not fleet state).
bool SnapshotsBitIdentical(const service::FleetSnapshot& a,
                           const service::FleetSnapshot& b) {
  if (a.active_tenants != b.active_tenants ||
      a.events_handled != b.events_handled ||
      a.assignment != b.assignment || a.violated_qos != b.violated_qos ||
      a.objective != b.objective ||
      a.allocations.size() != b.allocations.size()) {
    return false;
  }
  for (size_t id = 0; id < a.allocations.size(); ++id) {
    if (!(a.allocations[id] == b.allocations[id]) ||
        a.estimated_seconds[id] != b.estimated_seconds[id]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  PrintHeader(
      "service_events",
      "no paper counterpart: a resident AdvisorService must handle one "
      "tenant event by warm incremental repair >= 5x faster than the "
      "full fleet re-solve it replaces, within 25% of its cost");

  std::vector<MachineClass> classes = MakeMachineClasses();
  const scenario::Testbed& tb = *classes[0].testbed;
  std::vector<advisor::FleetMachine> fleet = MakeFleet(classes, kMachines);
  std::vector<advisor::Tenant> tenants = MakeFleetTenants(tb, kTenants);

  service::ServiceOptions options;
  options.advisor = SolveOptions();
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  service::AdvisorService service(fleet, options);

  // Stream the first 63 arrivals: the service reaches its warm resident
  // state (this is the service's whole life, not a setup artifact).
  double stream_start = NowSeconds();
  for (int i = 0; i < kTenants - 1; ++i) {
    service::EventOutcome out =
        service.SubmitArrival(tenants[static_cast<size_t>(i)]).get();
    if (!out.ok) {
      std::printf("arrival %d refused: %s\n", i, out.error.c_str());
      return 1;
    }
  }
  double stream_seconds = NowSeconds() - stream_start;

  TablePrinter t({"event", "warm (ms)", "cold full re-solve (ms)",
                  "speedup", "warm obj", "cold obj"});
  auto record = [&t](const std::string& kind, const EventTiming& e) {
    t.AddRow({kind, TablePrinter::Num(e.warm_ms, 2),
              TablePrinter::Num(e.cold_ms, 1),
              TablePrinter::Num(e.speedup(), 1),
              TablePrinter::Num(e.warm_objective, 1),
              TablePrinter::Num(e.cold_objective, 1)});
    RecordMetric("event_admission_latency_ms_warm_" + kind, e.warm_ms);
    RecordMetric("event_admission_latency_ms_cold_" + kind, e.cold_ms);
    RecordMetric("service_warm_speedup_" + kind, e.speedup());
  };

  // --- Arrival: tenant 63 joins the warm 63-tenant fleet. -----------------
  EventTiming arrival;
  {
    double start = NowSeconds();
    service::EventOutcome out =
        service.SubmitArrival(tenants[kTenants - 1]).get();
    arrival.warm_ms = (NowSeconds() - start) * 1e3;
    if (!out.ok) {
      std::printf("timed arrival refused: %s\n", out.error.c_str());
      return 1;
    }
    service::FleetSnapshot snap = service.Snapshot();
    arrival.warm_objective = snap.objective;
    arrival.warm_violations = snap.violated_qos.size();
    auto [cold_seconds, cold] = ColdSolve(fleet, tenants);
    arrival.cold_ms = cold_seconds * 1e3;
    arrival.cold_objective = cold.total_cost;
    arrival.cold_violations = cold.violated_qos.size();
    record("arrival", arrival);
  }

  // --- Drift: tenant 5's workload genuinely changes. ----------------------
  EventTiming drift;
  {
    simdb::Workload drifted;
    drifted.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 6.0);
    drifted.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 2.0);
    double start = NowSeconds();
    service::EventOutcome out = service.SubmitDrift(5, drifted).get();
    drift.warm_ms = (NowSeconds() - start) * 1e3;
    if (!out.ok) {
      std::printf("drift refused: %s\n", out.error.c_str());
      return 1;
    }
    service::FleetSnapshot snap = service.Snapshot();
    drift.warm_objective = snap.objective;
    drift.warm_violations = snap.violated_qos.size();
    std::vector<advisor::Tenant> drifted_tenants = tenants;
    drifted_tenants[5].workload = drifted;
    auto [cold_seconds, cold] = ColdSolve(fleet, drifted_tenants);
    drift.cold_ms = cold_seconds * 1e3;
    drift.cold_objective = cold.total_cost;
    drift.cold_violations = cold.violated_qos.size();
    record("drift", drift);
    tenants = std::move(drifted_tenants);  // the fleet's new truth
  }

  // --- No-op drift: same workload resubmitted; must be bit-identical. -----
  bool noop_identical = true;
  {
    service::FleetSnapshot before = service.Snapshot();
    double start = NowSeconds();
    service::EventOutcome out =
        service.SubmitDrift(9, tenants[9].workload).get();
    double noop_ms = (NowSeconds() - start) * 1e3;
    if (!out.ok) {
      std::printf("no-op drift refused: %s\n", out.error.c_str());
      return 1;
    }
    service::FleetSnapshot after = service.Snapshot();
    for (size_t i = 0; i < before.allocations.size(); ++i) {
      if (!(after.allocations[i] == before.allocations[i]) ||
          after.estimated_seconds[i] != before.estimated_seconds[i]) {
        noop_identical = false;
      }
    }
    if (after.objective != before.objective) noop_identical = false;
    RecordMetric("event_admission_latency_ms_warm_noop_drift", noop_ms);
    RecordMetric("service_noop_drift_identical", noop_identical ? 1.0 : 0.0);
    t.AddRow({"drift (no-op)", TablePrinter::Num(noop_ms, 2), "-", "-",
              TablePrinter::Num(after.objective, 1),
              noop_identical ? "bit-identical" : "DIVERGED"});
  }

  // --- Departure: tenant 17 leaves. ---------------------------------------
  EventTiming departure;
  {
    double start = NowSeconds();
    service::EventOutcome out = service.SubmitDeparture(17).get();
    departure.warm_ms = (NowSeconds() - start) * 1e3;
    if (!out.ok) {
      std::printf("departure refused: %s\n", out.error.c_str());
      return 1;
    }
    service::FleetSnapshot snap = service.Snapshot();
    departure.warm_objective = snap.objective;
    departure.warm_violations = snap.violated_qos.size();
    std::vector<advisor::Tenant> remaining;
    for (int i = 0; i < kTenants; ++i) {
      if (i != 17) remaining.push_back(tenants[static_cast<size_t>(i)]);
    }
    auto [cold_seconds, cold] = ColdSolve(fleet, remaining);
    departure.cold_ms = cold_seconds * 1e3;
    departure.cold_objective = cold.total_cost;
    departure.cold_violations = cold.violated_qos.size();
    record("departure", departure);
  }
  t.Print();

  // --- Multi-worker sharded loop: throughput scaling + bit-identity -------
  // Fresh service per worker count, identical event schedule; the final
  // fleet state must be a pure function of the schedule, so every arm's
  // snapshot must be bitwise equal to the workers=1 arm's (one lane
  // worker, events handled in exact submission order).
  const std::vector<advisor::Tenant> arm_tenants = MakeFleetTenants(tb, kTenants);
  std::printf("\nsharded event loop, burst of 192 drifts over %dx%d:\n",
              kMachines, kTenants);
  TablePrinter wt({"workers", "burst (s)", "events/s", "vs w1", "state vs w1"});
  bool multiworker_identical = true;
  double tput_w1 = 0.0;
  double tput_w4 = 0.0;
  service::FleetSnapshot w1_snap;
  for (int workers : {1, 2, 4, 8}) {
    WorkerArm arm = RunWorkerArm(fleet, arm_tenants, tb, workers,
                                 /*coalesce=*/false, /*duplicate_storm=*/false);
    if (!arm.ok) return 1;
    const double tput = arm.throughput();
    bool identical = true;
    if (workers == 1) {
      w1_snap = arm.snap;
      tput_w1 = tput;
    } else {
      identical = SnapshotsBitIdentical(arm.snap, w1_snap);
      multiworker_identical = multiworker_identical && identical;
    }
    if (workers == 4) tput_w4 = tput;
    RecordMetric("service_throughput_events_per_sec_w" +
                     std::to_string(workers),
                 tput);
    wt.AddRow({std::to_string(workers),
               TablePrinter::Num(arm.burst_seconds, 3),
               TablePrinter::Num(tput, 1),
               TablePrinter::Num(tput_w1 > 0.0 ? tput / tput_w1 : 0.0, 2),
               workers == 1 ? "(reference)"
                            : (identical ? "bit-identical" : "DIVERGED")});
  }
  wt.Print();
  const double scaling_w4 = tput_w1 > 0.0 ? tput_w4 / tput_w1 : 0.0;
  const bool multicore = ThreadPool::DefaultThreads() >= 4;
  // Thread-independent gating (PR 7 rule): the >= 2x floor is hard only
  // where 4 lane workers can actually run in parallel.
  const bool scaling_ok = !multicore || scaling_w4 >= 2.0;
  RecordMetric("service_worker_scaling_w4", scaling_w4);
  RecordMetric("service_multiworker_state_identical",
               multiworker_identical ? 1.0 : 0.0);
  RecordMetric("service_worker_scaling_ok", scaling_ok ? 1.0 : 0.0);

  // --- Coalescing: duplicate storm vs uncoalesced replay ------------------
  // 32 tenants each re-report one new workload 6 times behind a
  // Reconfigure plug. Coalescing must cut repairs (coalesced_drifts > 0,
  // i.e. repair count < event count) yet land on the exact state the
  // uncoalesced workers=1 replay lands on.
  WorkerArm replay = RunWorkerArm(fleet, arm_tenants, tb, /*workers=*/1,
                                  /*coalesce=*/false, /*duplicate_storm=*/true);
  WorkerArm co1 = RunWorkerArm(fleet, arm_tenants, tb, /*workers=*/1,
                               /*coalesce=*/true, /*duplicate_storm=*/true);
  WorkerArm co4 = RunWorkerArm(fleet, arm_tenants, tb, /*workers=*/4,
                               /*coalesce=*/true, /*duplicate_storm=*/true);
  if (!replay.ok || !co1.ok || !co4.ok) return 1;
  const bool coalesce_identical =
      SnapshotsBitIdentical(co1.snap, replay.snap) &&
      SnapshotsBitIdentical(co4.snap, replay.snap);
  const bool coalesce_saves =
      replay.snap.coalesced_drifts == 0 && co1.snap.coalesced_drifts > 0;
  RecordMetric("service_coalesced_drifts_w1",
               static_cast<double>(co1.snap.coalesced_drifts));
  RecordMetric("service_coalesce_state_identical",
               coalesce_identical ? 1.0 : 0.0);
  std::printf(
      "duplicate storm (192 events): uncoalesced repairs %ld, coalesced "
      "repairs %ld (w1) / %ld (w4)\n",
      replay.burst_events - 1, replay.burst_events - 1 -
          co1.snap.coalesced_drifts,
      replay.burst_events - 1 - co4.snap.coalesced_drifts);

  // --- Gates ---------------------------------------------------------------
  const bool latency_ok = arrival.speedup() >= 5.0;
  auto quality_ok = [](const EventTiming& e) {
    return e.cold_objective > 0.0 &&
           e.warm_objective <= 1.25 * e.cold_objective &&
           e.warm_violations <= e.cold_violations;
  };
  const bool cost_ok =
      quality_ok(arrival) && quality_ok(drift) && quality_ok(departure);

  RecordMetric("service_stream_seconds_63_arrivals", stream_seconds);
  RecordMetric("service_arrival_speedup_ok_8x64", latency_ok ? 1.0 : 0.0);
  RecordMetric("service_warm_cost_within_25pct", cost_ok ? 1.0 : 0.0);
  RecordMetric("hardware_threads",
               static_cast<double>(ThreadPool::DefaultThreads()));

  std::printf(
      "\nwarm arrival vs cold full re-solve at %dx%d: %.1fx (gate >= 5x: "
      "%s)\n",
      kMachines, kTenants, arrival.speedup(), latency_ok ? "yes" : "NO");
  std::printf("warm cost within 25%% of cold, no new QoS violations: %s\n",
              cost_ok ? "yes" : "NO");
  std::printf("no-op drift bit-identical: %s\n",
              noop_identical ? "yes" : "NO (bug)");
  std::printf("multi-worker final state bit-identical to workers=1: %s\n",
              multiworker_identical ? "yes" : "NO (bug)");
  if (multicore) {
    std::printf("4-worker throughput scaling: %.2fx (gate >= 2x: %s)\n",
                scaling_w4, scaling_ok ? "yes" : "NO");
  } else {
    std::printf(
        "4-worker throughput scaling: %.2fx (1-core host: >= 2x gate "
        "soft-warns)\n",
        scaling_w4);
  }
  std::printf("coalesced storm bit-identical to uncoalesced replay: %s\n",
              coalesce_identical ? "yes" : "NO (bug)");
  std::printf("coalescing performed fewer repairs than events: %s\n",
              coalesce_saves ? "yes" : "NO");
  PrintFooter();
  return latency_ok && cost_ok && noop_identical && multiworker_identical &&
                 scaling_ok && coalesce_identical && coalesce_saves
             ? 0
             : 1;
}
