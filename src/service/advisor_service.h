// Advisor-as-a-service: the resident control-plane loop over the advisor
// library (beyond the paper; see docs/service.md).
//
// Everything below src/service/ treats the advisor as a BATCH tool: build
// an estimator, enumerate, return a recommendation, throw the state away.
// Production control planes ("Towards Building Autonomous Data Services
// on Azure") don't work that way — tenants arrive, depart, and drift one
// at a time, and each event should cost an *incremental repair*, not a
// from-scratch fleet solve. AdvisorService owns the fleet state as a
// resident object: per-machine WhatIfCostEstimators stay alive across
// events (their what-if caches stay warm), a thread-safe MPSC EventQueue
// feeds the repair workers, and every event is handled by warm-starting
// the configured SearchStrategy from the incumbent allocation with
// finest-step-only move schedules, after a *targeted* invalidation of
// only the affected tenant's cache entries
// (WhatIfCostEstimator::InvalidateTenant). Arrivals are admitted through
// the pluggable PlacementPolicy onto the least-loaded feasible machine;
// cross-machine migration repair runs only when an event pushes a
// machine's gain-weighted saturation over a threshold.
//
// Concurrency model (docs/service.md "Concurrency model"): a dispatcher
// thread routes each event to its target machine's serial LANE in a
// ShardedQueue and ServiceOptions::workers repair workers lease lanes
// oldest-head-first: per-machine FIFO order is preserved while events
// for disjoint machines repair concurrently (warm repair only ever
// mutates one machine's state, so lanes share nothing but the commit
// mutex). With workers == 1 (the default) the one lane worker always
// takes the oldest lane head, so events are handled in exact submission
// order. Cross-machine operations — admission placement,
// Reconfigure, and any event while migration is armed — take a short
// GLOBAL EPOCH: the dispatcher drains every lane to idle, then handles
// the event inline with the fleet to itself. Optional drift coalescing
// (ServiceOptions::coalesce_drift) collapses a pending run of drift
// events for one tenant into a single repair priced at the latest
// workload; Snapshot() reports how many events were absorbed this way.
//
// Repair-quality contract: handling an event whose workload is unchanged
// (a no-op drift, or a Reconfigure with nothing new) returns the
// incumbent allocation BIT-IDENTICAL — the greedy incumbent has no
// improving finest-step move by construction, and the keep-incumbent
// guard refuses any repair that is not strictly better. Repairs therefore
// never worsen the objective, and converge to within the QoS degradation
// limits exactly as a cold solve does.
#ifndef VDBA_SERVICE_ADVISOR_SERVICE_H_
#define VDBA_SERVICE_ADVISOR_SERVICE_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/fleet_advisor.h"
#include "advisor/tenant.h"
#include "simdb/workload.h"
#include "simvm/resource_vector.h"
#include "util/event_queue.h"
#include "util/sharded_queue.h"

namespace vdba::service {

/// AdvisorService configuration.
struct ServiceOptions {
  /// Per-machine solve configuration (search strategy, move grid,
  /// estimator) — the same AdvisorOptions a batch advisor takes. The
  /// repair loop derives its warm spec from `advisor.search` by replacing
  /// every dimension's delta schedule with the finest step alone.
  advisor::AdvisorOptions advisor;
  /// Admission policy + headroom: arrivals are routed through this
  /// PlacementPolicy over a single-tenant projected-load demand row.
  advisor::PlacementSpec placement;
  /// Gain-weighted saturation (objective seconds the scarcest dimension
  /// of a machine costs its tenants) above which an event triggers
  /// cross-machine migration repair. Infinity disables migration; 0
  /// considers it after every event that touches a machine.
  double saturation_threshold = 10.0;
  /// Cap on ACCEPTED migrations per triggering event (each accepted move
  /// warm-repairs two machines).
  int max_migrations = 1;
  /// Tenants offered per migration attempt (worst-relief first).
  int migration_candidates = 2;
  /// Lane workers: a dispatcher routes events to per-machine serial
  /// lanes and `workers` threads repair disjoint machines concurrently.
  /// 1 (default) is one lane worker plus the dispatcher, which handles
  /// every event in exact submission order. At > 1 each per-machine
  /// estimator runs with batch_threads = 1, one pool worker joined by the
  /// repairing thread, so a repair's fan-out runs on 2 threads; estimates
  /// are thread-count invariant, so results do not change.
  int workers = 1;
  /// Collapse a run of drift events for ONE tenant, consecutive in its
  /// machine's lane, into a single repair priced at the latest workload
  /// (at any worker count; per-machine FIFO order is never violated;
  /// absorbed events resolve with the shared outcome and are counted in
  /// FleetSnapshot::coalesced_drifts). Only drifts the dispatcher has
  /// already routed into the lane can be absorbed, so where runs split
  /// depends on timing. Exactly state-identical to the uncoalesced
  /// replay when the run re-reports an unchanged workload (the skipped
  /// intermediate repairs are no-op keeps); for genuinely different
  /// intermediate workloads the final state is a warm repair of the same
  /// final workload seeded from the pre-run incumbent instead of the
  /// per-step one.
  bool coalesce_drift = false;
};

/// What became of one submitted event. Delivered through the
/// std::future each Submit* call returns, after the worker committed the
/// event's repair.
struct EventOutcome {
  /// False when the event was refused (unknown tenant id, invalid tenant,
  /// malformed workload or QoS, service already stopped); `error` says why
  /// and fleet state is untouched.
  bool ok = false;
  std::string error;
  /// Global id of the tenant the event concerned (the newly assigned id
  /// for arrivals; -1 for Reconfigure).
  int tenant = -1;
  /// Machine hosting that tenant after the event (-1 after departure).
  int machine = -1;
  /// Fleet objective (gain-weighted estimated seconds, all machines)
  /// after the event was committed.
  double objective = 0.0;
  /// Cross-machine migrations the event's saturation repair accepted.
  int migrations = 0;
};

/// Point-in-time copy of the fleet state (safe to take from any thread).
struct FleetSnapshot {
  /// assignment[id] = machine of global tenant id, -1 if departed (ids
  /// are never reused).
  std::vector<int> assignment;
  /// Per-tenant allocation on its machine (empty for departed tenants).
  std::vector<simvm::ResourceVector> allocations;
  /// Per-tenant estimated completion seconds (0 for departed tenants).
  std::vector<double> estimated_seconds;
  /// Global ids whose degradation limit the incumbent cannot satisfy.
  std::vector<int> violated_qos;
  /// Gain-weighted fleet objective.
  double objective = 0.0;
  int active_tenants = 0;
  long events_handled = 0;
  /// Drift events absorbed into a machine-mate's repair by coalescing
  /// (0 unless ServiceOptions::coalesce_drift). events_handled still
  /// counts every absorbed event; this counts the repairs saved.
  long coalesced_drifts = 0;
};

/// \brief The resident advisor: a dispatcher and a pool of lane workers
/// incrementally repairing a live fleet as tenant events stream in.
///
/// Thread safety: every public method is safe from any thread. Submit*
/// enqueue and return immediately; the returned future resolves when a
/// worker has committed (or refused) the event. Events for one machine
/// are handled strictly in submission (FIFO) order; with workers == 1
/// (default, one lane worker plus the dispatcher) so is the whole
/// stream. Stop() — also run by the destructor — closes the queue and
/// DRAINS it: every event accepted before Stop() is still handled, then
/// the threads exit; Submit* after Stop() resolve immediately with
/// ok = false.
class AdvisorService {
 public:
  /// \param machines At least one machine; calibration binding follows
  ///   FleetMachine::CalibrationFor, exactly like FleetAdvisor.
  AdvisorService(std::vector<advisor::FleetMachine> machines,
                 ServiceOptions options = ServiceOptions());
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// \brief Tenant arrival: admission + warm repair of one machine.
  ///
  /// The tenant is placed through the configured PlacementPolicy on the
  /// least-loaded feasible machine (its demand probed once per machine
  /// CLASS — see SameMachineClass), inserted into that machine's resident
  /// estimator (reusing a departed tenant's slot when one is free), and
  /// the machine is warm-repaired from the incumbent allocation with the
  /// incumbents scaled k/(k+1) to fund the newcomer's seed share.
  std::future<EventOutcome> SubmitArrival(advisor::Tenant tenant);

  /// Tenant departure: frees the slot, invalidates ONLY that tenant's
  /// cache entries, redistributes the freed share proportionally across
  /// the survivors' seeds, and warm-repairs the machine.
  std::future<EventOutcome> SubmitDeparture(int tenant_id);

  /// Workload drift: swaps the tenant's workload (targeted invalidation
  /// via SetWorkload — every other tenant's cache stays warm) and
  /// warm-repairs its machine from the incumbent. A drift to an
  /// identical workload returns the incumbent bit-identical.
  std::future<EventOutcome> SubmitDrift(int tenant_id,
                                        simdb::Workload workload);

  /// Full warm repair pass: every occupied machine is repaired from its
  /// incumbent, then saturation-triggered migration runs fleet-wide.
  std::future<EventOutcome> SubmitReconfigure();

  /// Closes the queue (further Submit* are refused), drains every
  /// already-accepted event, and joins the dispatcher and lane workers.
  /// Idempotent.
  void Stop();

  /// Copy of the fleet state as of the last committed event.
  FleetSnapshot Snapshot() const;

  int num_machines() const { return static_cast<int>(machines_.size()); }
  const ServiceOptions& options() const { return options_; }

  /// Machine m's resident estimator (null while the machine has never
  /// hosted a tenant). Counters/observations are for tests and benches;
  /// only read this while no event is in flight (estimator mutation
  /// happens on the repair threads).
  const advisor::WhatIfCostEstimator* machine_estimator(int m) const {
    return machines_[static_cast<size_t>(m)].estimator.get();
  }

 private:
  enum class EventKind { kArrival, kDeparture, kDrift, kReconfigure };

  struct Event {
    EventKind kind = EventKind::kReconfigure;
    advisor::Tenant tenant;      // arrival payload
    int tenant_id = -1;          // departure / drift target
    simdb::Workload workload;    // drift payload
    std::promise<EventOutcome> done;
  };

  /// One machine's resident state. `estimator` slots are append-only
  /// (AddTenant) with departed slots parked on `free_slots` and recycled
  /// through ReplaceTenant, so slot indices — and with them every OTHER
  /// tenant's cache keys — stay stable across arbitrarily long event
  /// streams.
  struct MachineState {
    advisor::FleetMachine machine;
    std::unique_ptr<advisor::WhatIfCostEstimator> estimator;
    /// slot -> global tenant id (-1 = free).
    std::vector<int> slot_tenant;
    std::vector<int> free_slots;
    /// Incumbent allocation / estimated seconds per slot (meaningful for
    /// occupied slots only).
    std::vector<simvm::ResourceVector> slot_alloc;
    std::vector<double> slot_cost;
    /// Estimated seconds of each slot's workload alone at 100% of this
    /// machine — the admission load unit.
    std::vector<double> slot_demand;
    /// Sum of occupied slots' slot_demand.
    double load = 0.0;
    /// Gain-weighted estimated seconds of the incumbent.
    double cost = 0.0;
    /// Slots whose degradation limit the incumbent cannot satisfy.
    std::vector<int> violated_slots;

    std::vector<int> OccupiedSlots() const;
  };

  struct TenantState {
    bool active = false;
    int machine = -1;
    int slot = -1;
    /// The tenant as submitted, BEFORE machine calibration binding — the
    /// form migrations rebind from (binding is per-machine, §4.3, so a
    /// src-bound copy cannot be handed to another box).
    advisor::Tenant original;
  };

  std::future<EventOutcome> Enqueue(Event event);
  /// Handles one popped event. A drift first absorbs (with
  /// coalesce_drift) the run of same-tenant drifts next in its leased
  /// `lane` and is repaired once through HandleDriftRun; any other event
  /// goes through Handle. `lane` -1 (a global epoch) absorbs nothing.
  void Process(Event event, int lane);
  /// The front half: classifies each event under state_mu_ and either
  /// pushes it onto its target machine's lane or — for cross-machine
  /// events — drains every lane (global epoch) and handles it inline.
  void DispatchLoop();
  /// The back half: leases one lane at a time (oldest-head-first) and
  /// handles its events; disjoint lanes run on distinct workers
  /// concurrently.
  void LaneLoop();
  /// Lane for `event`, or -1 when it must run as a global epoch
  /// (arrival, reconfigure, or any event while migration is armed).
  int RouteLane(const Event& event) const;
  /// True when events may trigger cross-machine migration — which forces
  /// every event through the global-epoch path.
  bool MigrationArmed() const;
  /// Publishes `outcome` for `event`: bumps events_handled_ and resolves
  /// the promise.
  void Complete(Event& event, EventOutcome outcome);
  EventOutcome Handle(Event& event);
  EventOutcome HandleArrival(Event& event);
  EventOutcome HandleDeparture(const Event& event);
  /// Handles a run of drift events for ONE tenant (all `batch` entries
  /// share tenant_id): applies the LATEST workload, repairs the machine
  /// once, and completes every event with the shared outcome. A batch of
  /// one is a single drift's repair; larger batches only form when
  /// coalesce_drift is on.
  void HandleDriftRun(std::vector<Event>& batch);
  EventOutcome HandleReconfigure();

  /// Estimated seconds of `tenant` alone at 100% of each machine, probed
  /// on each machine class's first machine (classmates share the value —
  /// see SameMachineClass).
  std::vector<double> ProbeDemandRow(const advisor::Tenant& tenant) const;
  /// Why drift `event` must be refused before it is applied or absorbed
  /// into a coalesced run: a workload its tenant's engine cannot plan or
  /// price. Empty when it is well formed, and for an unknown or departed
  /// tenant, which HandleDriftRun refuses.
  std::string DriftProblem(const Event& event) const;
  /// Admission: projected-load demand row through the PlacementPolicy.
  int Admit(const std::vector<double>& demand_row) const;

  /// Puts `bound` on machine m — reusing a freed estimator slot when one
  /// exists, appending otherwise — and publishes the slot binding.
  int InsertTenant(int m, advisor::Tenant bound, int global_id,
                   double demand);
  /// Frees machine m's `slot` and invalidates only that tenant's cache
  /// entries.
  void RemoveTenant(int m, int slot);
  /// Warm seeds after inserting `new_slot`: incumbents scaled k/(k+1)
  /// per dimension, the newcomer funded with the freed 1/(k+1) slice.
  std::vector<simvm::ResourceVector> ArrivalSeeds(
      const MachineState& ms, const std::vector<int>& slots,
      int new_slot) const;
  /// Warm seeds after a departure: survivors' incumbents scaled up
  /// (S+F)/S per dimension to absorb the freed share F.
  std::vector<simvm::ResourceVector> DepartureSeeds(
      const MachineState& ms, const std::vector<int>& slots,
      const simvm::ResourceVector& freed) const;
  /// Attempts moving machine src's `slot` to dst: performs the move on
  /// the resident estimators, warm-repairs both machines, and rolls the
  /// whole thing back exactly unless advisor::AcceptMove keeps it.
  bool TryMigrate(int src, int slot, int dst);

  /// Warm-repairs machine m's incumbent from `seeds` (finest-step spec +
  /// keep-incumbent-unless-strictly-better guard) and commits the result
  /// into its MachineState. Pass empty seeds for a cold solve (first
  /// arrival on a machine).
  void RepairMachine(int m, std::vector<simvm::ResourceVector> seeds);
  /// Saturation-triggered migration repair around machine m through the
  /// shared advisor migration policy (relief probe, least-loaded
  /// destination, worst-relief candidates). Returns accepted moves
  /// (<= options_.max_migrations); 0 without probing when disarmed.
  int MaybeMigrate(int m);

  /// Gain-weighted fleet objective. Takes state_mu_ — a lane handler
  /// races other lanes' repair commits, which publish under that mutex.
  double FleetObjective() const;
  /// Variants for callers already holding state_mu_ (Snapshot()).
  double FleetObjectiveLocked() const;
  std::vector<int> GlobalViolationsLocked() const;

  ServiceOptions options_;
  std::vector<MachineState> machines_;
  /// Per machine, its class (advisor::MachineClasses); machines never
  /// change.
  const std::vector<int> machine_class_;
  /// Global tenant table; ids are indices and are never reused.
  std::vector<TenantState> tenants_;

  EventQueue<Event> queue_;
  /// Per-machine serial lanes, one per machine.
  ShardedQueue<Event> lanes_;
  std::thread dispatcher_;
  std::vector<std::thread> lane_workers_;
  /// Guards machines_/tenants_/events_handled_/coalesced_drifts_ between
  /// the workers' commit points and Snapshot()/RouteLane(). A handler
  /// owns its machine's state exclusively (lane lease or epoch), so it
  /// reads that without the lock and takes it only to publish — and to
  /// read anything cross-machine.
  mutable std::mutex state_mu_;
  long events_handled_ = 0;
  long coalesced_drifts_ = 0;
  std::once_flag stop_once_;
};

}  // namespace vdba::service

#endif  // VDBA_SERVICE_ADVISOR_SERVICE_H_
