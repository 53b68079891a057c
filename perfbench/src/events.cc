// The event workload, event_drift: a resident AdvisorService on the
// 8-machine fleet, warmed by 64 arrivals, with migration disarmed
// (saturation_threshold = infinity, as both service benches run it) and
// 4 workers, so every drift is a machine-local warm repair on its lane.
// It is fed a seeded drift schedule in rounds: each round offers an
// open-loop stream at a fixed rate, waits for it to drain, then submits a
// burst at once (the backlog) and waits for the burst.
//
// The population carries no degradation limits: a run ends in one
// resident state, whose handful of QoS verdicts would make a QoS figure a
// property of the seed (fleet_plan measures QoS over 64 plans instead).
//
// Latency of a stream event runs from its due time to the moment its
// future resolves; throughput is burst events per second while a burst
// drains. The traced run replays the same schedule closed-loop (one event
// at a time, for handling time and the resident caches' counters) and on
// a workers = 1 service, whose final state must equal the open-loop run's
// bit for bit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "probe.h"
#include "service/advisor_service.h"
#include "trace.h"

namespace perfbench {

using vdba::advisor::Tenant;
using vdba::service::AdvisorService;
using vdba::service::EventOutcome;
using vdba::service::FleetSnapshot;
using vdba::service::ServiceOptions;
using vdba::simdb::Workload;

namespace {

constexpr int kSetups = 5;
constexpr int kWorkers = 4;
/// Rounds per run. The host steals CPU in bursts of seconds (one round
/// of a run may see 0.3% steal and the next 11%, doubling its p90), so
/// each round measures on its own and the run reports its timings from
/// the quiet rounds.
constexpr int kRounds = 9;
/// Drifts each round submits at once after its stream segment.
constexpr int kBurst = 5000;
/// Share of drifts that re-report the tenant's current workload.
constexpr double kReReportShare = 0.2;
/// Drifted workloads per tenant that a drift moves the tenant to. A pool
/// keeps the schedule small: a stored workload per drift would make the
/// schedule, not the service, the bulk of the process's memory.
constexpr int kVariants = 32;

/// One drift: tenant `tenant` reports variant `variant` of its workload,
/// or its warm-up workload while `variant` is -1.
struct Drift {
  int tenant = -1;
  int variant = -1;
};

/// A seeded drift schedule, run in kRounds rounds. Each round offers
/// `stream` drifts at the fixed rate, then submits `burst` drifts at once
/// and waits for everything to finish; the next round starts from that
/// quiet point.
struct Schedule {
  std::vector<Tenant> warm;  // the 64 warm-up arrivals
  std::vector<std::vector<Workload>> variants;  // per tenant
  std::vector<Drift> events;
  int stream = 0;  // per round
  int burst = 0;   // per round
  bool InStream(size_t i) const {
    return static_cast<int>(i % static_cast<size_t>(stream + burst)) < stream;
  }
  const Workload& Payload(const Drift& d) const {
    const size_t tenant = static_cast<size_t>(d.tenant);
    return d.variant < 0 ? warm[tenant].workload
                         : variants[tenant][static_cast<size_t>(d.variant)];
  }
};

std::future<EventOutcome> Submit(AdvisorService* svc, const Schedule& s,
                                 size_t i) {
  const Drift& d = s.events[i];
  return svc->SubmitDrift(d.tenant, s.Payload(d));
}

/// Builds the schedule: payloads, targets and variants come from `rng`.
Schedule MakeSchedule(const vdba::scenario::Testbed& tb, int stream,
                      int burst, vdba::Rng* rng) {
  Schedule s;
  s.warm = FleetTenants(tb, kFleetTenants, rng);
  for (int t = 0; t < kFleetTenants; ++t) {
    s.warm[static_cast<size_t>(t)].qos = vdba::advisor::QosSpec();
    s.variants.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      s.variants.back().push_back(DriftWorkload(tb, t, rng));
    }
  }
  s.stream = stream;
  s.burst = burst;
  std::vector<int> current(kFleetTenants, -1);
  for (int i = 0; i < kRounds * (stream + burst); ++i) {
    Drift d;
    d.tenant = static_cast<int>(rng->UniformInt(0, kFleetTenants - 1));
    int& variant = current[static_cast<size_t>(d.tenant)];
    if (rng->Uniform() >= kReReportShare) {
      // A drift that is not a re-report always changes the workload.
      int next = static_cast<int>(rng->UniformInt(0, kVariants - 1));
      if (next == variant) next = (next + 1) % kVariants;
      variant = next;
    }
    d.variant = variant;
    s.events.push_back(d);
  }
  return s;
}

ServiceOptions Options(int workers) {
  ServiceOptions options;
  options.workers = workers;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  return options;
}

/// A service on `bed`'s fleet warmed by the schedule's 64 arrivals, each
/// awaited. Returns null (and fails the report) if one is refused.
std::unique_ptr<AdvisorService> WarmService(const FleetBed& bed,
                                            const Schedule& s, int workers,
                                            Report* report) {
  auto svc = std::make_unique<AdvisorService>(bed.machines, Options(workers));
  for (const Tenant& t : s.warm) {
    const EventOutcome out = svc->SubmitArrival(t).get();
    report->Expect(out.ok, "warm-up arrival refused: " + out.error);
    if (!out.ok) return nullptr;
  }
  return svc;
}

bool SameSnapshot(const FleetSnapshot& a, const FleetSnapshot& b) {
  return a.assignment == b.assignment && a.allocations == b.allocations &&
         a.estimated_seconds == b.estimated_seconds &&
         a.violated_qos == b.violated_qos && a.objective == b.objective &&
         a.active_tenants == b.active_tenants &&
         a.events_handled == b.events_handled;
}

/// One round's figures.
struct Round {
  double p50_ms = 0.0, p90_ms = 0.0;
  double burst_per_sec = 0.0;
  double cpu_ms_per_event = 0.0;  // minus the generator's own thread
  double steal = 0.0;
};

/// What the open-loop run observed.
struct OpenLoop {
  std::vector<double> due, submitted, resolved;
  std::vector<EventOutcome> outcomes;
  std::vector<Round> rounds;
  double window_s = 0.0;
  double steal = 0.0;
  int threads_peak = 0;
};

/// Runs the rounds, noting when each future resolves. One thread submits
/// and collects. During the stream it waits on the oldest pending future
/// between due times, and while several stream events are in flight it
/// wakes at least every 100 us to sweep them all, so an event that
/// finishes out of order is seen within 100 us. Once the stream has
/// drained it submits the burst and blocks on the burst's futures in
/// submission order; the burst is timed until the last one resolves. It
/// also samples the process's thread count.
OpenLoop RunOpenLoop(AdvisorService* svc, const Schedule& s, double rate) {
  using Clock = std::chrono::steady_clock;
  const size_t n = s.events.size();
  OpenLoop run;
  run.due.resize(n);
  run.submitted.resize(n);
  run.resolved.resize(n);
  run.outcomes.resize(n);
  std::vector<std::future<EventOutcome>> futures(n);
  std::vector<size_t> pending;
  auto sweep = [&] {
    const double now = Now();
    auto still = pending.begin();
    for (size_t i : pending) {
      if (futures[i].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        run.resolved[i] = now;
        run.outcomes[i] = futures[i].get();
      } else {
        *still++ = i;
      }
    }
    pending.erase(still, pending.end());
  };
  // Harvests resolved events until `deadline`; Clock::time_point::max()
  // waits until nothing is pending.
  auto harvest_until = [&](Clock::time_point deadline) {
    while (!pending.empty()) {
      Clock::time_point wake = deadline;
      if (pending.size() > 1) {
        wake = std::min(wake, Clock::now() + std::chrono::microseconds(100));
      }
      const bool ready = futures[pending.front()].wait_until(wake) ==
                         std::future_status::ready;
      sweep();
      if (!ready && Clock::now() >= deadline) return;
    }
    if (deadline != Clock::time_point::max()) {
      std::this_thread::sleep_until(deadline);
    }
  };
  auto submit = [&](size_t i, double due) {
    run.due[i] = due;
    run.submitted[i] = Now();
    futures[i] = Submit(svc, s, i);
    pending.push_back(i);
    if (i % 64 == 0) {
      run.threads_peak = std::max(run.threads_peak, LiveThreads());
    }
  };

  const HostTicks host0 = ReadHostTicks();
  const double start = Now();
  const size_t per_round = static_cast<size_t>(s.stream + s.burst);
  for (size_t first = 0; first < n; first += per_round) {
    const double gen_cpu0 = ThreadCpu();
    const double cpu0 = ProcessCpu();
    const HostTicks round_host0 = ReadHostTicks();
    const Clock::time_point round_tp = Clock::now();
    const double round_start = Now();
    const size_t burst_first = first + static_cast<size_t>(s.stream);
    for (size_t i = first; i < burst_first; ++i) {
      const double offset = static_cast<double>(i - first) / rate;
      harvest_until(round_tp + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(offset)));
      submit(i, round_start + offset);
    }
    harvest_until(Clock::time_point::max());
    const double burst_start = Now();
    for (size_t i = burst_first; i < first + per_round; ++i) {
      run.due[i] = run.submitted[i] = burst_start;
      futures[i] = Submit(svc, s, i);
    }
    run.threads_peak = std::max(run.threads_peak, LiveThreads());
    for (size_t i = burst_first; i < first + per_round; ++i) {
      run.outcomes[i] = futures[i].get();
      run.resolved[i] = Now();
    }
    const double burst_end = Now();

    Round r;
    std::vector<double> latency_ms;
    for (size_t i = first; i < burst_first; ++i) {
      latency_ms.push_back((run.resolved[i] - run.due[i]) * 1e3);
    }
    r.p50_ms = Quantile(latency_ms, 0.5);
    r.p90_ms = Quantile(latency_ms, 0.9);
    r.burst_per_sec = s.burst / (burst_end - burst_start);
    r.cpu_ms_per_event = (ProcessCpu() - cpu0 - (ThreadCpu() - gen_cpu0)) *
                         1e3 / static_cast<double>(per_round);
    r.steal = StealFraction(round_host0, ReadHostTicks());
    run.rounds.push_back(r);
  }
  run.window_s = Now() - start;
  run.steal = StealFraction(host0, ReadHostTicks());
  return run;
}

/// Resident-cache counters of every machine's estimator, read while no
/// event is in flight.
struct CacheCounters {
  long hits = 0;
  long optimizer_calls = 0;
  /// Observation-log length per (machine, slot): one entry per cache miss
  /// since the slot was last invalidated.
  std::vector<std::vector<size_t>> log_sizes;
};

CacheCounters ReadCounters(const AdvisorService& svc) {
  CacheCounters c;
  c.log_sizes.resize(static_cast<size_t>(svc.num_machines()));
  for (int m = 0; m < svc.num_machines(); ++m) {
    const vdba::advisor::WhatIfCostEstimator* est = svc.machine_estimator(m);
    if (est == nullptr) continue;
    c.hits += est->cache_hits();
    c.optimizer_calls += est->optimizer_calls();
    for (int slot = 0; slot < est->num_tenants(); ++slot) {
      c.log_sizes[static_cast<size_t>(m)].push_back(
          est->observations(slot).size());
    }
  }
  return c;
}

/// Cache misses between two readings: a log that grew counts its growth;
/// a log that shrank was invalidated and counts its new length. (A log
/// invalidated and refilled past its old length counts only the growth.)
long Misses(const CacheCounters& before, const CacheCounters& after) {
  long misses = 0;
  for (size_t m = 0; m < after.log_sizes.size(); ++m) {
    for (size_t slot = 0; slot < after.log_sizes[m].size(); ++slot) {
      const size_t now = after.log_sizes[m][slot];
      const size_t was =
          slot < before.log_sizes[m].size() ? before.log_sizes[m][slot] : 0;
      misses += static_cast<long>(now >= was ? now - was : now);
    }
  }
  return misses;
}

/// The traced closed-loop replay: one event at a time on a fresh warmed
/// workers = 4 service.
struct ClosedLoop {
  std::vector<double> handle_ms;
  long hits = 0, misses = 0, optimizer_calls = 0;
  FleetSnapshot final;
  bool ok = true;
};

ClosedLoop RunClosedLoop(const FleetBed& bed, const Schedule& s,
                         Tracer* tracer, Report* report) {
  ClosedLoop run;
  auto svc = std::make_unique<AdvisorService>(bed.machines, Options(kWorkers));
  for (const Tenant& t : s.warm) {
    run.ok = run.ok && svc->SubmitArrival(t).get().ok;
  }
  CacheCounters prev = ReadCounters(*svc);
  const long warm_hits = prev.hits;
  const long warm_calls = prev.optimizer_calls;
  for (size_t i = 0; i < s.events.size(); ++i) {
    const double t0 = Now();
    const EventOutcome out = Submit(svc.get(), s, i).get();
    const double t1 = Now();
    tracer->Add("service.handle", static_cast<long>(i), t0, t1);
    run.handle_ms.push_back((t1 - t0) * 1e3);
    run.ok = run.ok && out.ok;
    const CacheCounters now = ReadCounters(*svc);
    run.misses += Misses(prev, now);
    prev = now;
  }
  run.hits = prev.hits - warm_hits;
  run.optimizer_calls = prev.optimizer_calls - warm_calls;
  run.final = svc->Snapshot();
  report->Expect(run.ok, "closed-loop replay: an event was refused");
  return run;
}

}  // namespace

void RunEventDrift(const Args& args, Report* report) {
  const double rate = args.drift_rate;
  const int stream = std::max(
      10, static_cast<int>(rate * args.seconds / kRounds + 0.5));

  std::unique_ptr<FleetBed> bed;
  Schedule schedule;
  std::unique_ptr<AdvisorService> svc;
  const double setup_s = MedianSetupSeconds(kSetups, [&] {
    svc.reset();
    bed = MakeFleetBed();
    vdba::Rng rng(args.seed);
    schedule = MakeSchedule(bed->tenant_testbed(), stream, kBurst, &rng);
    svc = WarmService(*bed, schedule, kWorkers, report);
  });
  if (svc == nullptr) return;

  Tracer tracer(args.trace);
  ResetPeakRss();
  const OpenLoop run = RunOpenLoop(svc.get(), schedule, rate);
  const size_t n = schedule.events.size();
  long failed = 0;
  std::vector<double> latency_ms(n, 0.0), lag_ms;
  for (size_t i = 0; i < n; ++i) {
    if (!run.outcomes[i].ok) ++failed;
    latency_ms[i] = (run.resolved[i] - run.due[i]) * 1e3;
    if (schedule.InStream(i)) {
      lag_ms.push_back((run.submitted[i] - run.due[i]) * 1e3);
    }
    tracer.Add("event", static_cast<long>(i), run.due[i], run.resolved[i]);
  }
  report->Count(static_cast<long>(n), failed);
  report->Expect(failed == 0, std::to_string(failed) + " events refused");
  const FleetSnapshot snap = svc->Snapshot();
  report->Expect(snap.violated_qos.empty(),
                 "a tenant without a degradation limit is reported violated");
  report->Expect(snap.events_handled ==
                     static_cast<long>(kFleetTenants + n),
                 "events_handled " + std::to_string(snap.events_handled) +
                     " != events submitted " +
                     std::to_string(kFleetTenants + n));
  std::printf("event_drift: %zu drifts in %d rounds of %d at %.1f/s + %d at "
              "once, objective %.6f\n",
              n, kRounds, schedule.stream, rate, schedule.burst,
              snap.objective);
  std::printf("noise: host.steal_frac %.4f, gen.lag_ms_p99 %.3f, "
              "process.threads_peak %d\n",
              run.steal, Quantile(lag_ms, 0.99), run.threads_peak);
  std::vector<double> round_steal;
  for (const Round& r : run.rounds) round_steal.push_back(r.steal);
  const std::vector<bool> quiet = QuietUnits(round_steal);
  for (size_t i = 0; i < run.rounds.size(); ++i) {
    const Round& r = run.rounds[i];
    std::printf("round: p50 %.3f ms, p90 %.3f ms, burst %.1f/s, cpu %.4f "
                "ms/event, steal %.4f%s\n",
                r.p50_ms, r.p90_ms, r.burst_per_sec, r.cpu_ms_per_event,
                r.steal, quiet[i] ? ", quiet" : "");
  }

  if (!args.trace) {
    // The timings over the quiet rounds. Stream drifts differ from each
    // other, so the rounds' p50s are averaged; CPU time leaves out stolen
    // time and adds up; a disturbance only slows a burst's drain, so the
    // throughput is the best round's.
    EndToEnd e2e;
    int counted = 0;
    for (size_t i = 0; i < run.rounds.size(); ++i) {
      if (!quiet[i]) continue;
      const Round& r = run.rounds[i];
      ++counted;
      e2e.latency_ms_p50 += r.p50_ms;
      e2e.cpu_ms_per_op += r.cpu_ms_per_event;
      e2e.throughput_per_sec =
          std::max(e2e.throughput_per_sec, r.burst_per_sec);
    }
    e2e.latency_ms_p50 /= counted;
    e2e.cpu_ms_per_op /= counted;
    e2e.objective = snap.objective;
    e2e.setup_s = setup_s;
    ReportEndToEnd(e2e, report);
    return;
  }

  svc.reset();
  const ClosedLoop closed = RunClosedLoop(*bed, schedule, &tracer, report);
  report->Expect(SameSnapshot(closed.final, snap),
                 "closed-loop replay ends in the open-loop final state");
  {
    auto serial = WarmService(*bed, schedule, /*workers=*/1, report);
    if (serial != nullptr) {
      std::vector<std::future<EventOutcome>> futures;
      for (size_t i = 0; i < n; ++i) {
        futures.push_back(Submit(serial.get(), schedule, i));
      }
      for (auto& f : futures) f.wait();
      report->Expect(SameSnapshot(serial->Snapshot(), snap),
                     "workers = 1 replay ends in the open-loop final state");
    }
  }

  std::vector<double> queue_wait_ms;
  for (size_t i = 0; i < n; ++i) {
    if (schedule.InStream(i)) {
      queue_wait_ms.push_back(latency_ms[i] - closed.handle_ms[i]);
    }
  }
  report->Metric("simdb.whatif_optimizations",
                 closed.optimizer_calls / static_cast<double>(n), "count");
  report->Metric("estimator.hit_ratio",
                 static_cast<double>(closed.hits) /
                     static_cast<double>(closed.hits + closed.misses),
                 "ratio");
  // The service builds its estimators itself, out of the decorator's
  // reach, and a drift runs no fleet plan.
  for (const char* name :
       {"estimator.busy_ms", "search.self_ms", "fleet.demand_probe_ms",
        "fleet.place_ms", "fleet.bin_solve_ms", "fleet.migration_ms"}) {
    report->Metric(name, 0.0, "ms");
  }
  for (const char* name : {"estimator.fanouts", "estimator.probes",
                           "search.iterations", "fleet.migration_attempts"}) {
    report->Metric(name, 0.0, "count");
  }
  report->Metric("fleet.migration_accept_ratio", 0.0, "ratio");
  report->Metric("service.handle_ms.drift", Median(closed.handle_ms), "ms");
  report->Metric("service.queue_wait_ms_p50", Median(queue_wait_ms), "ms");
  report->Metric("process.threads_peak", run.threads_peak, "count");
  report->Metric("host.steal_frac", run.steal, "ratio");
  report->Metric("gen.lag_ms_p99", Quantile(lag_ms, 0.99), "ms");
  double closed_s = 0.0;
  for (double ms : closed.handle_ms) closed_s += ms * 1e-3;
  report->Metric("trace.overhead_frac",
                 tracer.bookkeeping_seconds() / (run.window_s + closed_s),
                 "ratio");
  report->Expect(tracer.Write(SpanPath(args)), "write " + SpanPath(args));
}

}  // namespace perfbench
