// Deterministic concurrency stress harness for the AdvisorService event
// loop — the dispatcher plus per-machine lanes in src/service/, which
// runs at every worker count:
//
//   * ShardedQueue invariants: per-lane FIFO under the lease discipline,
//     oldest-head-first == exact global FIFO with one consumer, WaitIdle
//     as a real barrier, Close() draining everything accepted.
//   * Serial-replay equivalence: seeded randomized schedules (bursty
//     arrivals / departures / drift across machines, submitted without
//     waiting so lanes genuinely backlog) produce a final fleet state
//     BIT-IDENTICAL at workers 1, 2 and 4 to a closed-loop replay of the
//     same schedule (each event awaited before the next is submitted,
//     so only one is ever in flight); at workers=1 every per-event
//     outcome matches the replay's too.
//   * Linearizability of per-tenant histories under adversarial
//     interleavings: producers race through std::barrier-controlled
//     rounds (every producer fires its burst at the same instant — a
//     barrier-driven fake clock), yet each producer's program order per
//     tenant survives end to end.
//   * No lost or double-applied events across Stop(): every future
//     resolves exactly once; events_handled equals the events that
//     entered the loop; accepted arrivals are all visible in the final
//     snapshot.
//   * Coalescing commutes with replay: a duplicate-storm schedule run
//     with coalesce_drift on (workers 1 and 4) lands bit-identical to
//     the uncoalesced workers=1 replay, with fewer repairs than events.
//
// Everything is seeded (vdba::Rng) and assertion-deterministic; the
// nightly TSan job runs this file (see .github/workflows/nightly.yml),
// and CMake caps it at 120 s so a wedged schedule fails fast.
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "scenario/scenario.h"
#include "service/advisor_service.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sharded_queue.h"
#include "workload/tpch.h"

namespace vdba::service {
namespace {

using advisor::FleetMachine;
using advisor::Tenant;

// ---------------------------------------------------------------------------
// ShardedQueue
// ---------------------------------------------------------------------------

TEST(ShardedQueueTest, SingleConsumerDrainsInExactGlobalFifoOrder) {
  // Oldest-head-first lane scheduling with ONE consumer must reduce to
  // exact submission order across lanes — the property the service's
  // workers=1 guarantee is built on.
  ShardedQueue<int> queue(3);
  std::vector<int> lanes = {0, 2, 1, 1, 0, 2, 2, 0, 1, 0};
  for (size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_TRUE(queue.Push(lanes[i], static_cast<int>(i)));
  }
  queue.Close();
  for (size_t i = 0; i < lanes.size(); ++i) {
    std::optional<ShardedQueue<int>::Popped> popped = queue.PopLane();
    ASSERT_TRUE(popped.has_value()) << i;
    EXPECT_EQ(popped->item, static_cast<int>(i));
    EXPECT_EQ(popped->lane, lanes[i]);
    queue.Release(popped->lane);
  }
  EXPECT_FALSE(queue.PopLane().has_value());
}

TEST(ShardedQueueTest, LeaseSerializesALaneAcrossConcurrentConsumers) {
  // 4 consumers hammer 2 lanes; each lane's items must come out in FIFO
  // order even though consumers interleave freely across lanes.
  constexpr int kPerLane = 300;
  ShardedQueue<std::pair<int, int>> queue(2);
  std::vector<std::vector<int>> drained(2);
  std::mutex drained_mu;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto popped = queue.PopLane()) {
        {
          std::lock_guard lock(drained_mu);
          drained[static_cast<size_t>(popped->item.first)].push_back(
              popped->item.second);
        }
        queue.Release(popped->lane);
      }
    });
  }
  std::thread producer([&] {
    for (int i = 0; i < kPerLane; ++i) {
      for (int lane = 0; lane < 2; ++lane) {
        ASSERT_TRUE(queue.Push(lane, std::make_pair(lane, i)));
      }
    }
    queue.Close();
  });
  producer.join();
  for (std::thread& t : consumers) t.join();
  for (int lane = 0; lane < 2; ++lane) {
    ASSERT_EQ(drained[static_cast<size_t>(lane)].size(),
              static_cast<size_t>(kPerLane))
        << lane;
    for (int i = 0; i < kPerLane; ++i) {
      EXPECT_EQ(drained[static_cast<size_t>(lane)][static_cast<size_t>(i)],
                i)
          << "lane " << lane << " reordered";
    }
  }
}

TEST(ShardedQueueTest, PopMoreIfCoalescesOnlyMatchingRunsFromOwnLane) {
  ShardedQueue<int> queue(2);
  for (int v : {2, 4, 5, 6}) ASSERT_TRUE(queue.Push(0, std::move(v)));
  ASSERT_TRUE(queue.Push(1, 8));

  std::optional<ShardedQueue<int>::Popped> head = queue.PopLane();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->item, 2);
  auto even = [](const int& v) { return v % 2 == 0; };
  EXPECT_EQ(queue.PopMoreIf(head->lane, even), std::optional<int>(4));
  // 5 breaks the run; nothing past it may be taken even though 6 matches.
  EXPECT_EQ(queue.PopMoreIf(head->lane, even), std::nullopt);
  EXPECT_EQ(queue.PopMoreIf(head->lane, even), std::nullopt);
  queue.Release(head->lane);
  EXPECT_EQ(queue.size(), 3u);
}

TEST(ShardedQueueTest, WaitIdleBlocksUntilLanesDrainAndLeasesClear) {
  ShardedQueue<int> queue(2);
  std::atomic<int> handled{0};
  std::thread consumer([&] {
    while (auto popped = queue.PopLane()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      handled.fetch_add(1);
      queue.Release(popped->lane);
    }
  });
  constexpr int kItems = 20;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(queue.Push(i % 2, std::move(i)));
  }
  queue.WaitIdle();
  // The barrier may only open once every pushed item was fully handled
  // (popped AND released) — this is what makes a service epoch safe.
  EXPECT_EQ(handled.load(), kItems);
  queue.Close();
  consumer.join();
}

// ---------------------------------------------------------------------------
// Service schedules
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

/// TPC-H query pool with genuinely different resource profiles, so drift
/// events force real repairs.
constexpr int kQueryPool[] = {1, 3, 6, 12, 14, 18, 21};

simdb::Workload StressWorkload(int tenant, int variant) {
  scenario::Testbed& tb = TB();
  simdb::Workload w;
  const int q = kQueryPool[static_cast<size_t>((tenant + variant) % 7)];
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), q),
                 1.0 + (tenant % 3) + 0.25 * (variant % 4));
  return w;
}

Tenant StressTenant(int i) {
  scenario::Testbed& tb = TB();
  return tb.MakeTenant(i % 2 == 0 ? tb.db2_sf1() : tb.pg_sf1(),
                       StressWorkload(i, 0));
}

std::vector<FleetMachine> Fleet(int machines) {
  scenario::Testbed& tb = TB();
  return std::vector<FleetMachine>(
      static_cast<size_t>(machines),
      FleetMachine{TB().machine(), &tb.pg_calibration(),
                   &tb.db2_calibration()});
}

/// Migration disarmed (infinite threshold) so drift/departure events are
/// machine-local and the sharded loop runs lanes genuinely concurrently.
ServiceOptions StressOptions(int workers, bool coalesce = false) {
  ServiceOptions options;
  options.saturation_threshold = std::numeric_limits<double>::infinity();
  options.workers = workers;
  options.coalesce_drift = coalesce;
  return options;
}

/// Field-by-field bitwise comparison of the state a schedule must
/// determine (coalesced_drifts deliberately excluded — it is a property
/// of HOW events were batched, not of the fleet state).
void ExpectStateBitIdentical(const FleetSnapshot& got,
                             const FleetSnapshot& want) {
  EXPECT_EQ(got.active_tenants, want.active_tenants);
  EXPECT_EQ(got.events_handled, want.events_handled);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.violated_qos, want.violated_qos);
  EXPECT_EQ(got.objective, want.objective);  // bitwise, not near
  ASSERT_EQ(got.allocations.size(), want.allocations.size());
  for (size_t id = 0; id < want.allocations.size(); ++id) {
    EXPECT_EQ(got.allocations[id], want.allocations[id]) << "tenant " << id;
    EXPECT_EQ(got.estimated_seconds[id], want.estimated_seconds[id])
        << "tenant " << id;
  }
}

/// One op of a pre-generated schedule (generated OUTSIDE the service so
/// the identical sequence can be replayed at any worker count).
struct Op {
  enum Kind { kArrive, kDrift, kDepart } kind = kDrift;
  int tenant = -1;   // arrival index for kArrive, global id otherwise
  int variant = 0;   // drift workload variant
};

/// Seeded bursty schedule over `initial` pre-seeded tenants: drifts
/// dominate, departures thin the fleet, late arrivals grow it. Tenant
/// ids are fully determined by submission order, so the same schedule
/// replays identically at any worker count.
std::vector<Op> MakeSchedule(uint64_t seed, int initial, int ops) {
  Rng rng(seed);
  std::vector<int> active(static_cast<size_t>(initial));
  for (int i = 0; i < initial; ++i) active[static_cast<size_t>(i)] = i;
  int next_arrival = initial;
  std::vector<Op> schedule;
  schedule.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Op op;
    const double dice = rng.Uniform();
    if (dice < 0.15 || active.size() <= 2) {
      op.kind = Op::kArrive;
      op.tenant = next_arrival++;
      active.push_back(-1);  // id assigned by the service, tracked below
    } else if (dice < 0.30) {
      op.kind = Op::kDepart;
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
      op.tenant = static_cast<int>(pick);  // index into arrival order
      active.erase(active.begin() + static_cast<int64_t>(pick));
    } else {
      op.kind = Op::kDrift;
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
      op.tenant = static_cast<int>(pick);
      op.variant = static_cast<int>(rng.UniformInt(1, 6));
    }
    schedule.push_back(op);
  }
  return schedule;
}

/// Every op's outcome, in schedule order, and the final snapshot.
struct ScheduleRun {
  std::vector<EventOutcome> outcomes;
  FleetSnapshot snap;
};

/// Runs `schedule` against a fresh service at `workers` and returns the
/// outcomes and the final snapshot after every future resolved. Open
/// loop submits the burst WITHOUT waiting (so lanes genuinely backlog);
/// closed loop awaits each event before submitting the next, so the run
/// is serial whatever the event loop does.
ScheduleRun RunSchedule(const std::vector<Op>& schedule, int initial,
                        int workers, bool closed_loop = false) {
  AdvisorService service(Fleet(3), StressOptions(workers));
  // Seed tenants synchronously: ids 0..initial-1, deterministic layout.
  for (int i = 0; i < initial; ++i) {
    EventOutcome out = service.SubmitArrival(StressTenant(i)).get();
    VDBA_CHECK(out.ok);
  }
  // Track active ids exactly as MakeSchedule's index scheme expects:
  // op.tenant indexes the active list in schedule order; arrivals append
  // the next id (ids are assigned in submission order).
  std::vector<int> active(static_cast<size_t>(initial));
  for (int i = 0; i < initial; ++i) active[static_cast<size_t>(i)] = i;
  int next_id = initial;
  std::vector<std::future<EventOutcome>> futures;
  futures.reserve(schedule.size());
  auto submit = [&](std::future<EventOutcome> future) {
    futures.push_back(std::move(future));
    if (closed_loop) futures.back().wait();
  };
  for (const Op& op : schedule) {
    switch (op.kind) {
      case Op::kArrive:
        submit(service.SubmitArrival(StressTenant(op.tenant)));
        active.push_back(next_id++);
        break;
      case Op::kDepart: {
        const int id = active[static_cast<size_t>(op.tenant)];
        submit(service.SubmitDeparture(id));
        active.erase(active.begin() + op.tenant);
        break;
      }
      case Op::kDrift: {
        const int id = active[static_cast<size_t>(op.tenant)];
        submit(service.SubmitDrift(id, StressWorkload(id, op.variant)));
        break;
      }
    }
  }
  ScheduleRun run;
  for (std::future<EventOutcome>& f : futures) {
    run.outcomes.push_back(f.get());
    EXPECT_TRUE(run.outcomes.back().ok) << run.outcomes.back().error;
  }
  service.Stop();
  run.snap = service.Snapshot();
  return run;
}

/// Per-event outcomes equal, the objective bit for bit.
void ExpectOutcomesBitIdentical(const std::vector<EventOutcome>& got,
                                const std::vector<EventOutcome>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].ok, want[i].ok) << "event " << i;
    EXPECT_EQ(got[i].tenant, want[i].tenant) << "event " << i;
    EXPECT_EQ(got[i].machine, want[i].machine) << "event " << i;
    EXPECT_EQ(got[i].migrations, want[i].migrations) << "event " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].objective),
              std::bit_cast<uint64_t>(want[i].objective))
        << "event " << i;
  }
}

TEST(ServiceStressTest, ShardedFinalStateBitIdenticalToSerialReplay) {
  // The tentpole invariant: per-machine FIFO + epoch-drained
  // cross-machine events make the final fleet state a pure function of
  // the schedule, independent of worker count. The reference is a
  // closed-loop replay — serial by construction, whatever the loop. At
  // workers=1 the lone lane worker handles events in exact submission
  // order, so every per-event outcome must match the replay as well.
  for (uint64_t seed : {7ULL, 21ULL, 1031ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<Op> schedule = MakeSchedule(seed, /*initial=*/6,
                                                  /*ops=*/28);
    const ScheduleRun serial = RunSchedule(schedule, 6, /*workers=*/1,
                                           /*closed_loop=*/true);
    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const ScheduleRun open = RunSchedule(schedule, 6, workers);
      ExpectStateBitIdentical(open.snap, serial.snap);
      if (workers == 1) {
        ExpectOutcomesBitIdentical(open.outcomes, serial.outcomes);
      }
    }
  }
}

TEST(ServiceStressTest, BarrierInterleavedProducersKeepPerTenantOrder) {
  // Adversarial interleavings via a barrier-controlled fake clock: all
  // producers release each burst at the same instant, so the MPSC queue
  // sees maximally contended interleavings — but each producer's
  // program order per OWNED tenant must survive (same tenant -> same
  // lane -> FIFO), so every structurally valid op comes back ok.
  constexpr int kProducers = 4;
  constexpr int kRounds = 5;
  AdvisorService service(Fleet(3), StressOptions(/*workers=*/4));

  std::barrier clock(kProducers);
  struct Expected {
    std::future<EventOutcome> future;
    bool arrival = false;
  };
  std::vector<std::vector<Expected>> submitted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(0xA11CE + static_cast<uint64_t>(p));
      std::vector<std::future<EventOutcome>> arrivals;
      std::vector<int> owned;  // resolved ids of own live tenants
      for (int round = 0; round < kRounds; ++round) {
        clock.arrive_and_wait();  // tick: everyone bursts together
        // Resolve earlier arrivals first (ids needed to drift them).
        for (std::future<EventOutcome>& f : arrivals) {
          EventOutcome out = f.get();
          ASSERT_TRUE(out.ok) << out.error;
          owned.push_back(out.tenant);
        }
        arrivals.clear();
        if (round < 2) {
          arrivals.push_back(
              service.SubmitArrival(StressTenant(p * kRounds + round)));
        }
        for (int b = 0; b < 2 && !owned.empty(); ++b) {
          const size_t pick = static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(owned.size()) - 1));
          const int id = owned[pick];
          if (round == kRounds - 1 && b == 0) {
            Expected e;
            e.future = service.SubmitDeparture(id);
            submitted[static_cast<size_t>(p)].push_back(std::move(e));
            owned.erase(owned.begin() + static_cast<int64_t>(pick));
          } else {
            Expected e;
            e.future = service.SubmitDrift(
                id, StressWorkload(id, 1 + round));
            submitted[static_cast<size_t>(p)].push_back(std::move(e));
          }
        }
      }
      for (std::future<EventOutcome>& f : arrivals) {
        EventOutcome out = f.get();
        ASSERT_TRUE(out.ok) << out.error;
        owned.push_back(out.tenant);
      }
    });
  }
  for (std::thread& t : producers) t.join();

  long ops = 0;
  std::vector<int> seen_ids;
  for (auto& per_producer : submitted) {
    for (Expected& e : per_producer) {
      ASSERT_EQ(e.future.wait_for(std::chrono::seconds(60)),
                std::future_status::ready);
      EventOutcome out = e.future.get();
      // Linearizability of the per-tenant history: a drift or departure
      // submitted after its tenant's arrival resolved, by the same
      // producer, can never observe the tenant missing.
      EXPECT_TRUE(out.ok) << out.error;
      ++ops;
    }
  }
  const FleetSnapshot snap = service.Snapshot();
  // 2 arrivals per producer; exactly one departure each at the last round.
  EXPECT_EQ(snap.active_tenants, kProducers * 2 - kProducers);
  EXPECT_EQ(snap.events_handled, ops + kProducers * 2);
}

TEST(ServiceStressTest, StopMidBurstLosesNothingAndDoublesNothing) {
  for (uint64_t seed : {3ULL, 99ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    AdvisorService service(Fleet(2), StressOptions(/*workers=*/4));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.SubmitArrival(StressTenant(i)).get().ok);
    }
    // 3 producers race Stop() with bursts of valid drifts; a stopper
    // thread pulls the plug after a seeded delay.
    constexpr int kProducers = 3;
    constexpr int kPerProducer = 40;
    std::vector<std::vector<std::future<EventOutcome>>> futures(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          futures[static_cast<size_t>(p)].push_back(service.SubmitDrift(
              (p + i) % 4, StressWorkload((p + i) % 4, 1 + i % 5)));
        }
      });
    }
    Rng rng(seed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.UniformInt(50, 5000)));
    service.Stop();
    for (std::thread& t : producers) t.join();

    long entered_loop = 0;
    for (auto& per_producer : futures) {
      for (std::future<EventOutcome>& f : per_producer) {
        // Exactly-once completion: every future resolves, accepted or
        // refused.
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready);
        EventOutcome out = f.get();
        if (out.error == "service stopped") continue;  // refused at the door
        EXPECT_TRUE(out.ok) << out.error;
        ++entered_loop;
      }
    }
    // No lost events: everything accepted before Close() was handled.
    // No double-applied events: the handled count matches exactly (the
    // 4 seed arrivals included).
    EXPECT_EQ(service.Snapshot().events_handled, entered_loop + 4);
    EXPECT_EQ(service.Snapshot().active_tenants, 4);
  }
}

TEST(ServiceStressTest, CoalescingCommutesWithUncoalescedReplay) {
  // Duplicate-storm schedule: every tenant re-reports one NEW workload
  // kDup times. Uncoalesced replay: the first drift repairs, the next
  // kDup-1 are bit-identical no-op keeps. Coalesced: the run collapses
  // into one repair from the SAME incumbent at the SAME workload — so
  // the final states must agree bitwise while the repair count drops.
  constexpr int kTenants = 6;
  constexpr int kDup = 5;
  auto run = [&](int workers, bool coalesce) {
    AdvisorService service(Fleet(3), StressOptions(workers, coalesce));
    for (int i = 0; i < kTenants; ++i) {
      EventOutcome out = service.SubmitArrival(StressTenant(i)).get();
      VDBA_CHECK(out.ok);
    }
    // Plug the loop with a Reconfigure: while the dispatcher handles it
    // as a global epoch, the whole storm queues up behind it.
    std::vector<std::future<EventOutcome>> futures;
    futures.push_back(service.SubmitReconfigure());
    for (int i = 0; i < kTenants; ++i) {
      for (int d = 0; d < kDup; ++d) {
        futures.push_back(service.SubmitDrift(i, StressWorkload(i, 3)));
      }
    }
    for (std::future<EventOutcome>& f : futures) {
      EventOutcome out = f.get();
      EXPECT_TRUE(out.ok) << out.error;
    }
    service.Stop();
    return service.Snapshot();
  };

  const FleetSnapshot replay = run(/*workers=*/1, /*coalesce=*/false);
  EXPECT_EQ(replay.coalesced_drifts, 0);

  const FleetSnapshot serial_coalesced = run(1, true);
  ExpectStateBitIdentical(serial_coalesced, replay);
  // Behind the plug the dispatcher routes the whole storm into the lanes
  // while the lane worker repairs the first tenant, so later tenants'
  // runs sit complete in their lanes when their heads pop: repairs <
  // events strictly.
  EXPECT_GT(serial_coalesced.coalesced_drifts, 0);

  const FleetSnapshot sharded_coalesced = run(4, true);
  ExpectStateBitIdentical(sharded_coalesced, replay);
}

}  // namespace
}  // namespace vdba::service
