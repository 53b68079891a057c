// AdvisorService: event-queue FIFO under concurrent producers, warm
// repair bit-identity on no-op drift, targeted cache invalidation
// (only the drifted/departed tenant's entries go), admission onto the
// least-loaded machine, graceful shutdown draining in-flight events, and
// the armed saturation-migration path at one and four workers.
#include "service/advisor_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "scenario/scenario.h"
#include "util/event_queue.h"
#include "workload/tpch.h"

namespace vdba::service {
namespace {

using advisor::FleetMachine;
using advisor::QosSpec;
using advisor::Tenant;

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, FifoUnderConcurrentProducers) {
  // 4 producers push (producer, seq) pairs concurrently; one consumer
  // drains. MPSC FIFO means each producer's pairs come out in seq order
  // (global interleaving across producers is unspecified).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  EventQueue<std::pair<int, int>> queue;

  std::vector<std::pair<int, int>> popped;
  std::thread consumer([&] {
    while (std::optional<std::pair<int, int>> item = queue.WaitPop()) {
      popped.push_back(*item);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(std::make_pair(p, i)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  consumer.join();

  ASSERT_EQ(popped.size(), static_cast<size_t>(kProducers * kPerProducer));
  std::vector<int> next_seq(kProducers, 0);
  for (const auto& [producer, seq] : popped) {
    EXPECT_EQ(seq, next_seq[static_cast<size_t>(producer)])
        << "producer " << producer << " reordered";
    ++next_seq[static_cast<size_t>(producer)];
  }
}

TEST(EventQueueTest, CloseRefusesNewPushesButDrainsAcceptedOnes) {
  EventQueue<int> queue;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(int{i}));
  queue.Close();
  EXPECT_FALSE(queue.Push(int{99}));
  for (int i = 0; i < 5; ++i) {
    std::optional<int> got = queue.WaitPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(queue.WaitPop().has_value());
}

TEST(EventQueueTest, ProducersRacingCloseLoseNoEventAndLeakNoPromise) {
  // Regression for the Close() promise-completion path: 4 producers
  // hammer Push while the main thread closes mid-stream. The contract
  // under the race: every ACCEPTED event is drained (and its promise
  // resolved by the consumer), every REFUSED event stays with its
  // producer (Push does not consume on refusal) so the producer can
  // resolve its promise — the AdvisorService::Enqueue pattern. Nothing
  // may be lost or resolved twice.
  struct Item {
    int producer = -1;
    std::promise<int> done;
  };
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  EventQueue<Item> queue;

  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  std::atomic<int> drained{0};
  std::thread consumer([&] {
    while (std::optional<Item> item = queue.WaitPop()) {
      drained.fetch_add(1);
      item->done.set_value(1);  // handled
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    futures[static_cast<size_t>(p)].reserve(kPerProducer);
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Item item;
        item.producer = p;
        futures[static_cast<size_t>(p)].push_back(item.done.get_future());
        if (queue.Push(std::move(item))) {
          accepted.fetch_add(1);
        } else {
          refused.fetch_add(1);
          item.done.set_value(0);  // refused — the producer completes it
        }
      }
    });
  }
  // Close somewhere in the middle of the hammering.
  while (accepted.load() < kPerProducer / 2) std::this_thread::yield();
  queue.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();

  EXPECT_EQ(accepted.load() + refused.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.load(), accepted.load()) << "accepted event lost";
  int handled = 0;
  for (auto& per_producer : futures) {
    for (std::future<int>& f : per_producer) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a promise never completed";
      handled += f.get();
    }
  }
  EXPECT_EQ(handled, accepted.load());
}

// ---------------------------------------------------------------------------
// AdvisorService
// ---------------------------------------------------------------------------

scenario::Testbed& TB() {
  static scenario::Testbed tb = [] {
    scenario::TestbedOptions options;
    options.with_sf10 = false;
    options.with_tpcc = false;
    return scenario::Testbed(options);
  }();
  return tb;
}

/// Tenant i: alternating CPU-hungry (Q18) / I/O-bound (Q21) TPC-H work,
/// sizes spread so machines are genuinely contended.
Tenant ServiceTenant(int i, double weight = 2.0) {
  scenario::Testbed& tb = TB();
  simdb::Workload w;
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 == 0 ? 18 : 21),
                 weight + i);
  return tb.MakeTenant(i % 2 == 0 ? tb.db2_sf1() : tb.pg_sf1(), w);
}

ServiceOptions SingleMachineOptions() {
  ServiceOptions options;
  // Keep single-machine tests migration-free regardless of saturation.
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  return options;
}

TEST(AdvisorServiceTest, FirstArrivalMatchesColdBatchSolve) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  EventOutcome out = service.SubmitArrival(ServiceTenant(0)).get();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.tenant, 0);
  EXPECT_EQ(out.machine, 0);

  advisor::VirtualizationDesignAdvisor cold(TB().machine(),
                                            {ServiceTenant(0)});
  advisor::Recommendation want = cold.Recommend();
  FleetSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.allocations.size(), 1u);
  EXPECT_EQ(snap.allocations[0], want.allocations[0]);
  EXPECT_DOUBLE_EQ(snap.objective, want.objective);
}

TEST(AdvisorServiceTest, DpPruneServiceSurvivesItsFirstArrivals) {
  // The service cold-solves a machine's first tenant alone; under
  // dp_prune that one-tenant solve used to abort the process. Two
  // machines with migration armed (the default threshold) and three
  // arrivals: every event resolves, and the first one matches a cold
  // one-tenant dp_prune advisor.
  ServiceOptions options;
  options.advisor.search.strategy = "dp_prune";
  scenario::Testbed& tb = TB();
  const FleetMachine machine{tb.machine(), &tb.pg_calibration(),
                             &tb.db2_calibration()};
  AdvisorService service({machine, machine}, options);
  EventOutcome first = service.SubmitArrival(ServiceTenant(0)).get();
  ASSERT_TRUE(first.ok) << first.error;

  advisor::AdvisorOptions cold_options;
  cold_options.search.strategy = "dp_prune";
  advisor::VirtualizationDesignAdvisor cold(tb.machine(), {ServiceTenant(0)},
                                            cold_options);
  advisor::Recommendation want = cold.Recommend();
  FleetSnapshot snap = service.Snapshot();
  ASSERT_EQ(snap.allocations.size(), 1u);
  EXPECT_EQ(snap.allocations[0], want.allocations[0]);

  for (int i = 1; i < 3; ++i) {
    EventOutcome out = service.SubmitArrival(ServiceTenant(i)).get();
    ASSERT_TRUE(out.ok) << out.error;
  }
  snap = service.Snapshot();
  ASSERT_EQ(snap.allocations.size(), 3u);
  for (const simvm::ResourceVector& r : snap.allocations) {
    EXPECT_TRUE(r.Valid()) << r.ToString();
  }
}

TEST(AdvisorServiceTest, NoOpDriftReturnsTheIncumbentBitIdentical) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  FleetSnapshot before = service.Snapshot();

  // Re-submit tenant 1's workload unchanged: the warm repair must
  // terminate at the incumbent and commit it bit-identically.
  EventOutcome out =
      service.SubmitDrift(1, ServiceTenant(1).workload).get();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.machine, 0);

  FleetSnapshot after = service.Snapshot();
  ASSERT_EQ(after.allocations.size(), before.allocations.size());
  for (size_t i = 0; i < before.allocations.size(); ++i) {
    EXPECT_EQ(after.allocations[i], before.allocations[i]) << i;
    EXPECT_DOUBLE_EQ(after.estimated_seconds[i],
                     before.estimated_seconds[i])
        << i;
  }
  EXPECT_DOUBLE_EQ(after.objective, before.objective);
  EXPECT_EQ(after.violated_qos, before.violated_qos);
}

TEST(AdvisorServiceTest, DriftInvalidatesOnlyTheDriftedTenant) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  const advisor::WhatIfCostEstimator* est = service.machine_estimator(0);
  ASSERT_NE(est, nullptr);
  const size_t obs0 = est->observations(0).size();
  const size_t obs1 = est->observations(1).size();
  const size_t obs2 = est->observations(2).size();
  ASSERT_GT(obs1, 0u);
  const long hits_before = est->cache_hits();

  // No-op drift on tenant 1 (slot 1): its log is cleared and repopulated
  // by the repair's probes; tenants 0 and 2 keep their logs EXACTLY —
  // every one of their repair probes must hit the still-warm cache.
  ASSERT_TRUE(service.SubmitDrift(1, ServiceTenant(1).workload).get().ok);

  EXPECT_EQ(est->observations(0).size(), obs0);
  EXPECT_EQ(est->observations(2).size(), obs2);
  EXPECT_GT(est->observations(1).size(), 0u);
  EXPECT_LE(est->observations(1).size(), obs1);
  EXPECT_GT(est->cache_hits(), hits_before);

  // Departure evicts the departing tenant's log; the survivors' stay.
  ASSERT_TRUE(service.SubmitDeparture(1).get().ok);
  EXPECT_EQ(est->observations(1).size(), 0u);
  EXPECT_GT(est->observations(0).size(), 0u);
  EXPECT_GT(est->observations(2).size(), 0u);
}

TEST(AdvisorServiceTest, DepartureRedistributesTheFreedShare) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
  }
  FleetSnapshot before = service.Snapshot();
  ASSERT_TRUE(service.SubmitDeparture(0).get().ok);
  FleetSnapshot after = service.Snapshot();

  EXPECT_EQ(after.assignment[0], -1);
  EXPECT_EQ(after.active_tenants, 2);
  // The freed share must not stay stranded: each survivor ends at least
  // as well off as at its pre-departure allocation (the repair seeds
  // redistribute the share, and the keep-incumbent guard only ever
  // improves from there).
  for (int id : {1, 2}) {
    EXPECT_LE(after.estimated_seconds[static_cast<size_t>(id)],
              before.estimated_seconds[static_cast<size_t>(id)] + 1e-9)
        << id;
  }
}

TEST(AdvisorServiceTest, ArrivalsLandOnTheLeastLoadedFeasibleMachine) {
  scenario::Testbed& tb = TB();
  std::vector<FleetMachine> machines(
      2, FleetMachine{tb.machine(), &tb.pg_calibration(),
                      &tb.db2_calibration()});
  ServiceOptions options;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  AdvisorService service(machines, options);

  // First tenant: both machines idle, FFD ties to machine 0. Second:
  // machine 0 now carries load, so the least-loaded outcome is machine 1.
  EventOutcome first = service.SubmitArrival(ServiceTenant(0, 8.0)).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.machine, 0);
  EventOutcome second = service.SubmitArrival(ServiceTenant(1, 8.0)).get();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.machine, 1);

  FleetSnapshot snap = service.Snapshot();
  EXPECT_EQ(snap.active_tenants, 2);
  EXPECT_EQ(snap.assignment, (std::vector<int>{0, 1}));
}

TEST(AdvisorServiceTest, StopDrainsInFlightEventsAndRefusesLaterOnes) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  // Queue a burst and stop immediately: every accepted event must still
  // be handled (Close() starts the drain, it does not drop).
  std::vector<std::future<EventOutcome>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.SubmitArrival(ServiceTenant(i)));
  }
  service.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    EventOutcome out = futures[i].get();
    EXPECT_TRUE(out.ok) << i << ": " << out.error;
  }
  EXPECT_EQ(service.Snapshot().active_tenants, 4);
  EXPECT_EQ(service.Snapshot().events_handled, 4);

  EventOutcome refused = service.SubmitArrival(ServiceTenant(9)).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, "service stopped");
}

TEST(AdvisorServiceTest, InvalidEventsAreRefusedWithoutStateDamage) {
  AdvisorService service({FleetMachine{TB().machine()}},
                         SingleMachineOptions());
  ASSERT_TRUE(service.SubmitArrival(ServiceTenant(0)).get().ok);
  FleetSnapshot before = service.Snapshot();

  EXPECT_FALSE(service.SubmitDeparture(7).get().ok);
  EXPECT_FALSE(service.SubmitDrift(-1, ServiceTenant(0).workload).get().ok);
  Tenant engineless;
  EXPECT_FALSE(service.SubmitArrival(engineless).get().ok);

  FleetSnapshot after = service.Snapshot();
  EXPECT_EQ(after.active_tenants, before.active_tenants);
  EXPECT_DOUBLE_EQ(after.objective, before.objective);
  // Refused events still count as handled (they went through the loop).
  EXPECT_EQ(after.events_handled, before.events_handled + 3);
}

// ---------------------------------------------------------------------------
// Multi-worker service: the PR-8 serial repair-quality assertions must
// survive the sharded loop (dispatcher + per-machine lanes) verbatim.
// ---------------------------------------------------------------------------

/// Migration disarmed (infinite threshold), so drifts and departures run
/// on their machine's lane.
ServiceOptions DisarmedOptions(int workers) {
  ServiceOptions options;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  options.workers = workers;
  return options;
}

std::vector<FleetMachine> Machines(int count) {
  scenario::Testbed& tb = TB();
  return std::vector<FleetMachine>(
      static_cast<size_t>(count),
      FleetMachine{tb.machine(), &tb.pg_calibration(),
                   &tb.db2_calibration()});
}

TEST(AdvisorServiceMultiWorkerTest, NoOpDriftBitIdenticalUnderShardedLoop) {
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AdvisorService service(Machines(2), DisarmedOptions(workers));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    FleetSnapshot before = service.Snapshot();

    EventOutcome out =
        service.SubmitDrift(1, ServiceTenant(1).workload).get();
    ASSERT_TRUE(out.ok) << out.error;

    FleetSnapshot after = service.Snapshot();
    ASSERT_EQ(after.allocations.size(), before.allocations.size());
    EXPECT_EQ(after.assignment, before.assignment);
    for (size_t i = 0; i < before.allocations.size(); ++i) {
      EXPECT_EQ(after.allocations[i], before.allocations[i]) << i;
      EXPECT_DOUBLE_EQ(after.estimated_seconds[i],
                       before.estimated_seconds[i])
          << i;
    }
    EXPECT_DOUBLE_EQ(after.objective, before.objective);
    EXPECT_EQ(after.violated_qos, before.violated_qos);
  }
}

TEST(AdvisorServiceMultiWorkerTest, DepartureRedistributesUnderShardedLoop) {
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AdvisorService service(Machines(2), DisarmedOptions(workers));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    FleetSnapshot before = service.Snapshot();
    EventOutcome out = service.SubmitDeparture(0).get();
    ASSERT_TRUE(out.ok) << out.error;
    FleetSnapshot after = service.Snapshot();

    EXPECT_EQ(after.assignment[0], -1);
    EXPECT_EQ(after.active_tenants, 3);
    // The departed tenant's machine-mates absorb the freed share: no
    // survivor of that machine ends worse than its pre-departure cost;
    // tenants on OTHER machines are untouched bit-identically (lanes are
    // machine-local).
    for (size_t id = 1; id < 4; ++id) {
      if (before.assignment[id] == out.machine) {
        EXPECT_LE(after.estimated_seconds[id],
                  before.estimated_seconds[id] + 1e-9)
            << id;
      } else {
        EXPECT_EQ(after.allocations[id], before.allocations[id]) << id;
        EXPECT_DOUBLE_EQ(after.estimated_seconds[id],
                         before.estimated_seconds[id])
            << id;
      }
    }
  }
}

TEST(AdvisorServiceMultiWorkerTest, DisarmedNoOpReconfigureCostsNoWhatIfCall) {
  // With migration disarmed a no-op Reconfigure is one warm repair per
  // machine that finds nothing to improve: every probe it makes is a
  // cache hit, and no saturation probe may run for a migration that can
  // never fire.
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AdvisorService service(Machines(3), DisarmedOptions(workers));
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(service.SubmitArrival(ServiceTenant(i)).get().ok);
    }
    const FleetSnapshot before = service.Snapshot();
    std::vector<long> calls;
    for (int m = 0; m < service.num_machines(); ++m) {
      ASSERT_NE(service.machine_estimator(m), nullptr) << m;
      calls.push_back(service.machine_estimator(m)->optimizer_calls());
    }

    EventOutcome out = service.SubmitReconfigure().get();
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.migrations, 0);

    for (int m = 0; m < service.num_machines(); ++m) {
      EXPECT_EQ(service.machine_estimator(m)->optimizer_calls(),
                calls[static_cast<size_t>(m)])
          << "machine " << m;
    }
    const FleetSnapshot after = service.Snapshot();
    EXPECT_EQ(after.events_handled, before.events_handled + 1);
    EXPECT_EQ(after.assignment, before.assignment);
    EXPECT_EQ(after.violated_qos, before.violated_qos);
    EXPECT_EQ(after.objective, before.objective);  // bitwise, not near
    ASSERT_EQ(after.allocations.size(), before.allocations.size());
    for (size_t id = 0; id < before.allocations.size(); ++id) {
      EXPECT_EQ(after.allocations[id], before.allocations[id]) << id;
      EXPECT_EQ(after.estimated_seconds[id], before.estimated_seconds[id])
          << id;
    }
  }
}

// ---------------------------------------------------------------------------
// Armed migration: default ServiceOptions (saturation threshold 10, one
// accepted move per event, two candidates) on three identical machines,
// so drifts, the departure and the Reconfigure all run as global epochs
// and the saturation repair accepts some moves and rolls others back.
// ---------------------------------------------------------------------------

struct ArmedRun {
  FleetSnapshot snapshot;
  int migrations = 0;
};

ArmedRun RunArmedSchedule(int workers) {
  scenario::Testbed& tb = TB();
  ServiceOptions options;
  options.workers = workers;
  AdvisorService service(
      std::vector<FleetMachine>(3, FleetMachine{tb.machine(),
                                                &tb.pg_calibration(),
                                                &tb.db2_calibration()}),
      options);
  std::vector<std::future<EventOutcome>> futures;
  for (int i = 0; i < 9; ++i) {
    Tenant tenant = ServiceTenant(i);
    if (i % 3 == 0) tenant.qos.degradation_limit = 2.0;
    futures.push_back(service.SubmitArrival(std::move(tenant)));
  }
  for (int i = 0; i < 9; ++i) {
    futures.push_back(service.SubmitDrift(i, ServiceTenant(i, 6.0).workload));
  }
  futures.push_back(service.SubmitDeparture(4));
  futures.push_back(service.SubmitReconfigure());
  ArmedRun run;
  for (std::future<EventOutcome>& future : futures) {
    EventOutcome out = future.get();
    EXPECT_TRUE(out.ok) << out.error;
    run.migrations += out.migrations;
  }
  run.snapshot = service.Snapshot();
  return run;
}

TEST(AdvisorServiceMigrationTest, ArmedScheduleIsPinnedAndWorkerInvariant) {
  const ArmedRun serial = RunArmedSchedule(1);
  const ArmedRun sharded = RunArmedSchedule(4);
  EXPECT_GT(serial.migrations, 0);
  EXPECT_EQ(sharded.migrations, serial.migrations);

  const FleetSnapshot& want = serial.snapshot;
  const FleetSnapshot& got = sharded.snapshot;
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.violated_qos, want.violated_qos);
  EXPECT_EQ(got.objective, want.objective);  // bitwise, not near
  EXPECT_EQ(got.events_handled, want.events_handled);
  ASSERT_EQ(got.allocations.size(), want.allocations.size());
  for (size_t id = 0; id < want.allocations.size(); ++id) {
    EXPECT_EQ(got.allocations[id], want.allocations[id]) << id;
    EXPECT_EQ(got.estimated_seconds[id], want.estimated_seconds[id]) << id;
  }

  // Pinned values: any change to the migration policy that moves a
  // decision (a move accepted or rolled back differently) shows up here.
  EXPECT_EQ(want.assignment, (std::vector<int>{0, 0, 2, 1, -1, 0, 2, 0, 1}));
  EXPECT_DOUBLE_EQ(want.objective, 1881.7349118091738);
}

}  // namespace
}  // namespace vdba::service
