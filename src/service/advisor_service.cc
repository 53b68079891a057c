#include "service/advisor_service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "advisor/allocation.h"
#include "advisor/search_strategy.h"
#include "util/check.h"

namespace vdba::service {

namespace {

using advisor::CostEstimator;
using advisor::EnumerationResult;
using advisor::QosSpec;
using advisor::Tenant;
using advisor::TenantAllocation;
using advisor::WhatIfCostEstimator;

/// Read-through view of a machine's resident estimator restricted to its
/// OCCUPIED slots: local tenant j maps to estimator slot slots[j]. This
/// is what lets a SearchStrategy solve "the machine's current tenants"
/// while every probe lands in the long-lived estimator's sharded cache —
/// the warmth that incremental repair trades on. Freed slots are simply
/// absent, so a strategy can never probe a departed tenant.
class SlotSubsetEstimator : public CostEstimator {
 public:
  SlotSubsetEstimator(WhatIfCostEstimator* base, std::vector<int> slots)
      : base_(base), slots_(std::move(slots)) {}

  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    return base_->EstimateSeconds(Slot(tenant), r);
  }
  int num_tenants() const override { return static_cast<int>(slots_.size()); }
  int num_dims() const override { return base_->num_dims(); }
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override {
    std::vector<TenantAllocation> remapped(batch.begin(), batch.end());
    for (TenantAllocation& probe : remapped) probe.tenant = Slot(probe.tenant);
    return base_->EstimateMany(remapped);
  }

 private:
  int Slot(int tenant) const {
    VDBA_CHECK_GE(tenant, 0);
    VDBA_CHECK_LT(static_cast<size_t>(tenant), slots_.size());
    return slots_[static_cast<size_t>(tenant)];
  }

  WhatIfCostEstimator* base_;
  std::vector<int> slots_;
};

/// Why a tenant cannot run on machine m, or empty when it can. The
/// estimator aborts (VDBA_CHECK) on an invalid tenant; a service must
/// refuse the event instead.
std::string TenantProblem(const Tenant& bound) {
  if (bound.engine == nullptr) return "tenant has no engine";
  if (bound.calibration == nullptr) {
    return "tenant has no calibration model for this machine";
  }
  if (bound.engine->flavor() != bound.calibration->flavor()) {
    return "tenant calibration flavor does not match its engine";
  }
  return {};
}

}  // namespace

std::vector<int> AdvisorService::MachineState::OccupiedSlots() const {
  std::vector<int> slots;
  for (size_t s = 0; s < slot_tenant.size(); ++s) {
    if (slot_tenant[s] >= 0) slots.push_back(static_cast<int>(s));
  }
  return slots;
}

AdvisorService::AdvisorService(std::vector<advisor::FleetMachine> machines,
                               ServiceOptions options)
    : options_(std::move(options)),
      lanes_(static_cast<int>(machines.size())) {
  VDBA_CHECK(!machines.empty());
  VDBA_CHECK_GT(options_.placement.headroom, 0.0);
  options_.workers = std::max(1, options_.workers);
  machines_.resize(machines.size());
  for (size_t m = 0; m < machines.size(); ++m) {
    VDBA_CHECK(machines[m].hardware.resources != nullptr);
    machines_[m].machine = machines[m];
  }
  if (options_.workers > 1) {
    // The parallelism budget goes to concurrent LANES, so each resident
    // estimator gets the smallest pool of its own: one worker, joined by
    // the repairing thread, 2 threads per fan-out (estimates are
    // thread-count invariant — the FleetAdvisor rule — so this changes
    // nothing but scheduling).
    options_.advisor.estimator.batch_threads = 1;
  }
  lane_workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    lane_workers_.emplace_back(&AdvisorService::LaneLoop, this);
  }
  dispatcher_ = std::thread(&AdvisorService::DispatchLoop, this);
}

AdvisorService::~AdvisorService() { Stop(); }

void AdvisorService::Stop() {
  std::call_once(stop_once_, [this] {
    queue_.Close();
    // The dispatcher drains the queue into the lanes, closes them, and
    // exits; the lane workers then drain the lanes and exit, so every
    // accepted event is handled before the joins return.
    dispatcher_.join();
    for (std::thread& w : lane_workers_) w.join();
  });
}

std::future<EventOutcome> AdvisorService::Enqueue(Event event) {
  std::future<EventOutcome> future = event.done.get_future();
  if (!queue_.Push(std::move(event))) {
    // Refused pushes leave `event` intact, so the promise can still be
    // satisfied: submissions after Stop() resolve immediately.
    EventOutcome outcome;
    outcome.error = "service stopped";
    event.done.set_value(std::move(outcome));
  }
  return future;
}

std::future<EventOutcome> AdvisorService::SubmitArrival(
    advisor::Tenant tenant) {
  Event event;
  event.kind = EventKind::kArrival;
  event.tenant = std::move(tenant);
  return Enqueue(std::move(event));
}

std::future<EventOutcome> AdvisorService::SubmitDeparture(int tenant_id) {
  Event event;
  event.kind = EventKind::kDeparture;
  event.tenant_id = tenant_id;
  return Enqueue(std::move(event));
}

std::future<EventOutcome> AdvisorService::SubmitDrift(
    int tenant_id, simdb::Workload workload) {
  Event event;
  event.kind = EventKind::kDrift;
  event.tenant_id = tenant_id;
  event.workload = std::move(workload);
  return Enqueue(std::move(event));
}

std::future<EventOutcome> AdvisorService::SubmitReconfigure() {
  Event event;
  event.kind = EventKind::kReconfigure;
  return Enqueue(std::move(event));
}

void AdvisorService::Complete(Event& event, EventOutcome outcome) {
  {
    std::lock_guard lock(state_mu_);
    ++events_handled_;
  }
  event.done.set_value(std::move(outcome));
}

void AdvisorService::Process(Event event, int lane) {
  if (event.kind != EventKind::kDrift) {
    Complete(event, Handle(event));
    return;
  }
  std::vector<Event> batch;
  batch.push_back(std::move(event));
  if (options_.coalesce_drift && lane >= 0) {
    const int id = batch.front().tenant_id;
    while (std::optional<Event> more =
               lanes_.PopMoreIf(lane, [id](const Event& e) {
                 return e.kind == EventKind::kDrift && e.tenant_id == id;
               })) {
      batch.push_back(std::move(*more));
    }
  }
  HandleDriftRun(batch);
}

bool AdvisorService::MigrationArmed() const {
  return num_machines() >= 2 && options_.max_migrations > 0 &&
         std::isfinite(options_.saturation_threshold);
}

int AdvisorService::RouteLane(const Event& event) const {
  switch (event.kind) {
    case EventKind::kArrival:
    case EventKind::kReconfigure:
      // Cross-machine by nature: admission reads every machine's load,
      // Reconfigure repairs the whole fleet.
      return -1;
    case EventKind::kDeparture:
    case EventKind::kDrift: {
      // A machine-local repair — unless it may trigger migration, which
      // reads and writes OTHER machines and so needs the fleet to
      // itself. Migration being armed is a property of the options, so
      // the loop keeps full lane concurrency exactly when repairs are
      // provably machine-local.
      if (MigrationArmed()) return -1;
      const int id = event.tenant_id;
      std::lock_guard lock(state_mu_);
      if (id >= 0 && static_cast<size_t>(id) < tenants_.size() &&
          tenants_[static_cast<size_t>(id)].active) {
        // The binding cannot go stale: machines change only through
        // migration (an epoch, impossible here) or a departure — which,
        // being FIFO in this very lane, executes first and turns the
        // event into the refusal it would have been serially.
        return tenants_[static_cast<size_t>(id)].machine;
      }
      // Refused at execution whatever the lane; lane 0 keeps it ordered.
      return 0;
    }
  }
  return -1;
}

void AdvisorService::DispatchLoop() {
  while (std::optional<Event> event = queue_.WaitPop()) {
    const int lane = RouteLane(*event);
    if (lane >= 0) {
      // Cannot fail: the lanes close only after this loop exits.
      lanes_.Push(lane, std::move(*event));
      continue;
    }
    // Global epoch: drain every in-flight lane repair, then handle the
    // cross-machine event inline with exclusive ownership of the fleet.
    lanes_.WaitIdle();
    Process(std::move(*event), -1);
  }
  lanes_.Close();
}

void AdvisorService::LaneLoop() {
  while (std::optional<ShardedQueue<Event>::Popped> popped =
             lanes_.PopLane()) {
    Process(std::move(popped->item), popped->lane);
    lanes_.Release(popped->lane);
  }
}

EventOutcome AdvisorService::Handle(Event& event) {
  switch (event.kind) {
    case EventKind::kArrival:
      return HandleArrival(event);
    case EventKind::kDeparture:
      return HandleDeparture(event);
    case EventKind::kDrift:
      // Unreachable: every loop routes drift through HandleDriftRun
      // (which completes the whole run itself).
      break;
    case EventKind::kReconfigure:
      return HandleReconfigure();
  }
  EventOutcome outcome;
  outcome.error = "unknown event kind";
  return outcome;
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

std::vector<double> AdvisorService::ProbeDemandRow(
    const advisor::Tenant& tenant) const {
  const int p = num_machines();
  std::vector<double> row(static_cast<size_t>(p), 0.0);
  // One throwaway single-tenant estimator per machine CLASS; classmates
  // copy the value (SameMachineClass implies bit-identical estimates).
  std::vector<int> probed;
  advisor::WhatIfEstimatorOptions est_opts = options_.advisor.estimator;
  est_opts.batch_threads = 1;
  for (int m = 0; m < p; ++m) {
    const advisor::FleetMachine& fm =
        machines_[static_cast<size_t>(m)].machine;
    int rep = -1;
    for (int e : probed) {
      if (advisor::SameMachineClass(machines_[static_cast<size_t>(e)].machine,
                                    fm)) {
        rep = e;
        break;
      }
    }
    if (rep >= 0) {
      row[static_cast<size_t>(m)] = row[static_cast<size_t>(rep)];
      continue;
    }
    WhatIfCostEstimator probe(fm.hardware, {fm.Bind(tenant)}, est_opts);
    row[static_cast<size_t>(m)] = probe.EstimateSeconds(
        0, simvm::ResourceVector::Full(fm.hardware.resources->dims()));
    probed.push_back(m);
  }
  return row;
}

int AdvisorService::Admit(const std::vector<double>& demand_row) const {
  const int p = num_machines();
  if (p == 1) return 0;
  // Single-tenant placement over PROJECTED loads: the row offered to the
  // policy is load[m] + d_new[m], so "cheapest machine first" is exactly
  // "least-loaded outcome first", and the capacity test admits machines
  // whose projected load stays within headroom of the balanced target.
  advisor::PlacementInput input;
  input.num_machines = p;
  input.demand.emplace_back(static_cast<size_t>(p));
  double total = *std::min_element(demand_row.begin(), demand_row.end());
  for (int m = 0; m < p; ++m) {
    input.demand[0][static_cast<size_t>(m)] =
        machines_[static_cast<size_t>(m)].load +
        demand_row[static_cast<size_t>(m)];
    total += machines_[static_cast<size_t>(m)].load;
  }
  input.capacity.assign(static_cast<size_t>(p),
                        options_.placement.headroom * total / p);
  std::vector<int> assignment =
      advisor::MakePlacementPolicy(options_.placement)->Place(input);
  VDBA_CHECK_EQ(assignment.size(), size_t{1});
  return assignment[0];
}

// ---------------------------------------------------------------------------
// Slot management
// ---------------------------------------------------------------------------

int AdvisorService::InsertTenant(int m, advisor::Tenant bound, int global_id,
                                 double demand) {
  MachineState& ms = machines_[static_cast<size_t>(m)];
  std::lock_guard lock(state_mu_);
  int slot;
  if (ms.estimator == nullptr) {
    // First tenant this machine ever hosts: the resident estimator is
    // born now and lives for the rest of the service.
    std::vector<Tenant> tenants;
    tenants.push_back(std::move(bound));
    ms.estimator = std::make_unique<WhatIfCostEstimator>(
        ms.machine.hardware, std::move(tenants), options_.advisor.estimator);
    slot = 0;
  } else if (!ms.free_slots.empty()) {
    slot = ms.free_slots.back();
    ms.free_slots.pop_back();
    ms.estimator->ReplaceTenant(slot, std::move(bound));
  } else {
    slot = ms.estimator->AddTenant(std::move(bound));
  }
  if (static_cast<size_t>(slot) >= ms.slot_tenant.size()) {
    ms.slot_tenant.resize(static_cast<size_t>(slot) + 1, -1);
    ms.slot_alloc.resize(static_cast<size_t>(slot) + 1);
    ms.slot_cost.resize(static_cast<size_t>(slot) + 1, 0.0);
    ms.slot_demand.resize(static_cast<size_t>(slot) + 1, 0.0);
  }
  ms.slot_tenant[static_cast<size_t>(slot)] = global_id;
  ms.slot_alloc[static_cast<size_t>(slot)] = simvm::ResourceVector::Full(
      ms.machine.hardware.resources->dims());
  ms.slot_cost[static_cast<size_t>(slot)] = 0.0;
  ms.slot_demand[static_cast<size_t>(slot)] = demand;
  ms.load += demand;
  if (global_id >= 0) {
    TenantState& ts = tenants_[static_cast<size_t>(global_id)];
    ts.active = true;
    ts.machine = m;
    ts.slot = slot;
  }
  return slot;
}

void AdvisorService::RemoveTenant(int m, int slot) {
  MachineState& ms = machines_[static_cast<size_t>(m)];
  std::lock_guard lock(state_mu_);
  VDBA_CHECK_GE(ms.slot_tenant[static_cast<size_t>(slot)], 0);
  ms.slot_tenant[static_cast<size_t>(slot)] = -1;
  ms.free_slots.push_back(slot);
  ms.load -= ms.slot_demand[static_cast<size_t>(slot)];
  ms.slot_demand[static_cast<size_t>(slot)] = 0.0;
  ms.slot_cost[static_cast<size_t>(slot)] = 0.0;
  // Targeted invalidation: ONLY the departed tenant's cache entries and
  // observations go; the survivors' stay warm for the repair that
  // follows.
  ms.estimator->InvalidateTenant(slot);
}

// ---------------------------------------------------------------------------
// Warm repair
// ---------------------------------------------------------------------------

std::vector<simvm::ResourceVector> AdvisorService::ArrivalSeeds(
    const MachineState& ms, const std::vector<int>& slots,
    int new_slot) const {
  const size_t k = slots.size() - 1;  // incumbents (newcomer excluded)
  if (k == 0) return {};              // first tenant: cold solve
  const int dims = ms.machine.hardware.resources->dims();
  const double min_share = options_.advisor.search.enumerator.min_share;
  // Per-dimension incumbent share mass S: the newcomer is funded with
  // S/(k+1) while every incumbent keeps k/(k+1) of its share, so the
  // per-dimension sum — which greedy's transfer moves conserve — is
  // unchanged.
  std::vector<double> mass(static_cast<size_t>(dims), 0.0);
  for (int slot : slots) {
    if (slot == new_slot) continue;
    for (int d = 0; d < dims; ++d) {
      mass[static_cast<size_t>(d)] +=
          ms.slot_alloc[static_cast<size_t>(slot)].share(d);
    }
  }
  const double scale = static_cast<double>(k) / static_cast<double>(k + 1);
  std::vector<simvm::ResourceVector> seeds;
  seeds.reserve(slots.size());
  for (int slot : slots) {
    simvm::ResourceVector r = simvm::ResourceVector::Full(dims);
    for (int d = 0; d < dims; ++d) {
      double share =
          slot == new_slot
              ? mass[static_cast<size_t>(d)] / static_cast<double>(k + 1)
              : ms.slot_alloc[static_cast<size_t>(slot)].share(d) * scale;
      r.set(d, std::clamp(share, min_share, 1.0));
    }
    seeds.push_back(r);
  }
  return seeds;
}

std::vector<simvm::ResourceVector> AdvisorService::DepartureSeeds(
    const MachineState& ms, const std::vector<int>& slots,
    const simvm::ResourceVector& freed) const {
  const int dims = ms.machine.hardware.resources->dims();
  std::vector<simvm::ResourceVector> seeds;
  seeds.reserve(slots.size());
  for (int slot : slots) {
    seeds.push_back(ms.slot_alloc[static_cast<size_t>(slot)]);
  }
  // Redistribute the departed tenant's share proportionally: greedy moves
  // TRANSFER share between tenants (per-dimension sums are conserved), so
  // without this the freed capacity would stay stranded forever.
  for (int d = 0; d < dims; ++d) {
    double mass = 0.0;
    for (const simvm::ResourceVector& r : seeds) mass += r.share(d);
    if (mass <= 0.0) continue;
    const double factor = (mass + freed.share(d)) / mass;
    for (simvm::ResourceVector& r : seeds) {
      r.set(d, std::min(1.0, r.share(d) * factor));
    }
  }
  return seeds;
}

void AdvisorService::RepairMachine(int m,
                                   std::vector<simvm::ResourceVector> seeds) {
  MachineState& ms = machines_[static_cast<size_t>(m)];
  const std::vector<int> slots = ms.OccupiedSlots();
  if (slots.empty()) {
    std::lock_guard lock(state_mu_);
    ms.cost = 0.0;
    ms.violated_slots.clear();
    return;
  }
  SlotSubsetEstimator subset(ms.estimator.get(), slots);
  std::vector<QosSpec> qos;
  qos.reserve(slots.size());
  for (int slot : slots) {
    qos.push_back(ms.estimator->tenants()[static_cast<size_t>(slot)].qos);
  }

  EnumerationResult chosen;
  if (seeds.empty()) {
    // Cold solve (first tenant on the machine): the full coarse-to-fine
    // spec, exactly what a batch advisor would run.
    chosen = advisor::MakeSearchStrategy(options_.advisor.search)
                 ->Run(&subset, qos, {});
  } else {
    // Warm repair: explore out from the seeds with every dimension pinned
    // to its FINEST step. A converged greedy incumbent has no improving
    // finest-step move, so repairing an unchanged machine terminates
    // immediately at the incumbent — the bit-identical no-op guarantee.
    advisor::SearchSpec spec = options_.advisor.search;
    for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
      spec.enumerator.deltas[static_cast<size_t>(d)] = {
          options_.advisor.search.enumerator.FinestDelta(d)};
    }
    EnumerationResult repaired =
        advisor::MakeSearchStrategy(spec)->Run(&subset, qos, seeds);
    // Keep-incumbent guard: the seeds win unless the repair is STRICTLY
    // better, so a repair can never worsen the objective (and ties —
    // including every no-op event — preserve the incumbent exactly).
    EnumerationResult incumbent =
        advisor::FinalizeEnumeration(&subset, qos, std::move(seeds));
    chosen = repaired.objective < incumbent.objective - advisor::kFleetEpsilon
                 ? std::move(repaired)
                 : std::move(incumbent);
  }

  std::lock_guard lock(state_mu_);
  for (size_t j = 0; j < slots.size(); ++j) {
    const size_t slot = static_cast<size_t>(slots[j]);
    ms.slot_alloc[slot] = chosen.allocations[j];
    ms.slot_cost[slot] = chosen.tenant_costs[j];
  }
  ms.cost = chosen.objective;
  ms.violated_slots.clear();
  for (int local : chosen.violated_qos) {
    ms.violated_slots.push_back(slots[static_cast<size_t>(local)]);
  }
}

// ---------------------------------------------------------------------------
// Saturation-triggered migration
// ---------------------------------------------------------------------------

bool AdvisorService::TryMigrate(int src, int slot, int dst) {
  MachineState& src_ms = machines_[static_cast<size_t>(src)];
  MachineState& dst_ms = machines_[static_cast<size_t>(dst)];
  const int id = src_ms.slot_tenant[static_cast<size_t>(slot)];
  const Tenant& original = tenants_[static_cast<size_t>(id)].original;
  if (!TenantProblem(dst_ms.machine.Bind(original)).empty()) {
    return false;  // cannot run on dst
  }
  auto violations = [&] {
    std::set<int> ids;
    for (const MachineState* ms : {&src_ms, &dst_ms}) {
      for (int v : ms->violated_slots) {
        ids.insert(ms->slot_tenant[static_cast<size_t>(v)]);
      }
    }
    return ids;
  };
  const double old_pair = src_ms.cost + dst_ms.cost;
  const std::set<int> old_violations = violations();
  // Soft state to restore on rejection (slot BINDINGS are rolled back by
  // the symmetric remove/insert below; allocations and costs by these
  // copies). The estimators themselves need no rollback: values are pure
  // functions of (machine, tenant, allocation), so stale-then-recycled
  // slots can only cost recomputation, never a wrong answer.
  const std::vector<simvm::ResourceVector> src_alloc = src_ms.slot_alloc;
  const std::vector<double> src_cost = src_ms.slot_cost;
  const std::vector<int> src_violated = src_ms.violated_slots;
  const double src_machine_cost = src_ms.cost;
  const std::vector<simvm::ResourceVector> dst_alloc = dst_ms.slot_alloc;
  const std::vector<double> dst_cost = dst_ms.slot_cost;
  const std::vector<int> dst_violated = dst_ms.violated_slots;
  const double dst_machine_cost = dst_ms.cost;
  const double demand_src = src_ms.slot_demand[static_cast<size_t>(slot)];
  const simvm::ResourceVector freed =
      src_ms.slot_alloc[static_cast<size_t>(slot)];

  // Perform the move on the resident state: departure on src, arrival on
  // dst, warm repair of both.
  RemoveTenant(src, slot);
  int dst_slot = InsertTenant(dst, dst_ms.machine.Bind(original), id, 0.0);
  RepairMachine(src, DepartureSeeds(src_ms, src_ms.OccupiedSlots(), freed));
  RepairMachine(dst,
                ArrivalSeeds(dst_ms, dst_ms.OccupiedSlots(), dst_slot));
  // The mover's full-machine demand, read after dst's repair has priced
  // it (greedy's warm-up probes every tenant's full machine first), so
  // the read is a cache hit. Load feeds only admission and the rollback
  // below, and neither runs before this point.
  const int dst_dims = dst_ms.machine.hardware.resources->dims();
  const double demand_dst = dst_ms.estimator->EstimateSeconds(
      dst_slot, simvm::ResourceVector::Full(dst_dims));
  {
    std::lock_guard lock(state_mu_);
    dst_ms.slot_demand[static_cast<size_t>(dst_slot)] = demand_dst;
    dst_ms.load += demand_dst;
  }

  if (advisor::AcceptMove(old_pair, old_violations,
                          src_ms.cost + dst_ms.cost, violations())) {
    return true;
  }

  // Roll back: symmetric departure from dst + re-insertion into src (the
  // slot just freed there is the first the freelist hands back), then
  // restore the saved allocations/costs verbatim.
  RemoveTenant(dst, dst_slot);
  int back = InsertTenant(src, src_ms.machine.Bind(original), id, demand_src);
  VDBA_CHECK_EQ(back, slot);
  std::lock_guard lock(state_mu_);
  std::copy(src_alloc.begin(), src_alloc.end(), src_ms.slot_alloc.begin());
  std::copy(src_cost.begin(), src_cost.end(), src_ms.slot_cost.begin());
  src_ms.violated_slots = src_violated;
  src_ms.cost = src_machine_cost;
  std::copy(dst_alloc.begin(), dst_alloc.end(), dst_ms.slot_alloc.begin());
  std::copy(dst_cost.begin(), dst_cost.end(), dst_ms.slot_cost.begin());
  dst_ms.violated_slots = dst_violated;
  dst_ms.cost = dst_machine_cost;
  return false;
}

int AdvisorService::MaybeMigrate(int m) {
  // Disarmed migration never probes: this is also what lets the sharded
  // dispatcher lane-route events whenever MigrationArmed() is false — a
  // disarmed repair provably never reads another machine.
  if (!MigrationArmed()) return 0;
  MachineState& ms = machines_[static_cast<size_t>(m)];
  int accepted = 0;
  while (accepted < options_.max_migrations) {
    const std::vector<int> slots = ms.OccupiedSlots();
    const advisor::ReliefProbe probe = advisor::ProbeRelief(
        ms.estimator.get(), slots, ms.slot_alloc, ms.slot_cost);
    double saturation = 0.0;
    const int dim = probe.MostSaturated(&saturation);
    if (dim < 0 || saturation <= options_.saturation_threshold) break;
    const int dst = advisor::LeastLoadedMachine(
        num_machines(), m,
        [this](int k) { return machines_[static_cast<size_t>(k)].cost; });
    if (dst < 0) break;
    if (slots.size() < 2) break;  // never empty a machine to repair it

    bool moved = false;
    for (int row : advisor::RankMoveCandidates(
             probe, dim, options_.migration_candidates)) {
      if (TryMigrate(m, slots[static_cast<size_t>(row)], dst)) {
        ++accepted;
        moved = true;
        break;
      }
    }
    if (!moved) break;  // repair converged
  }
  return accepted;
}

// ---------------------------------------------------------------------------
// Event handlers
// ---------------------------------------------------------------------------

EventOutcome AdvisorService::HandleArrival(Event& event) {
  EventOutcome outcome;
  if (event.tenant.engine == nullptr) {
    outcome.error = "arrival refused: tenant has no engine";
    return outcome;
  }
  for (int m = 0; m < num_machines(); ++m) {
    std::string problem = TenantProblem(
        machines_[static_cast<size_t>(m)].machine.Bind(event.tenant));
    if (!problem.empty()) {
      outcome.error = "arrival refused on machine " + std::to_string(m) +
                      ": " + problem;
      return outcome;
    }
  }

  const std::vector<double> demand_row = ProbeDemandRow(event.tenant);
  const int m = Admit(demand_row);

  int id;
  {
    std::lock_guard lock(state_mu_);
    id = static_cast<int>(tenants_.size());
    TenantState ts;
    ts.original = event.tenant;
    tenants_.push_back(std::move(ts));
  }
  MachineState& ms = machines_[static_cast<size_t>(m)];
  InsertTenant(m, ms.machine.Bind(event.tenant), id,
               demand_row[static_cast<size_t>(m)]);
  const std::vector<int> slots = ms.OccupiedSlots();
  RepairMachine(m, ArrivalSeeds(ms, slots, tenants_[static_cast<size_t>(id)].slot));
  outcome.migrations = MaybeMigrate(m);

  outcome.ok = true;
  outcome.tenant = id;
  outcome.machine = tenants_[static_cast<size_t>(id)].machine;
  outcome.objective = FleetObjective();
  return outcome;
}

EventOutcome AdvisorService::HandleDeparture(const Event& event) {
  EventOutcome outcome;
  const int id = event.tenant_id;
  if (id < 0 || static_cast<size_t>(id) >= tenants_.size() ||
      !tenants_[static_cast<size_t>(id)].active) {
    outcome.error = "departure refused: unknown or departed tenant id " +
                    std::to_string(id);
    return outcome;
  }
  const int m = tenants_[static_cast<size_t>(id)].machine;
  const int slot = tenants_[static_cast<size_t>(id)].slot;
  MachineState& ms = machines_[static_cast<size_t>(m)];
  const simvm::ResourceVector freed =
      ms.slot_alloc[static_cast<size_t>(slot)];

  RemoveTenant(m, slot);
  {
    std::lock_guard lock(state_mu_);
    TenantState& ts = tenants_[static_cast<size_t>(id)];
    ts.active = false;
    ts.machine = -1;
    ts.slot = -1;
  }
  RepairMachine(m, DepartureSeeds(ms, ms.OccupiedSlots(), freed));

  outcome.ok = true;
  outcome.tenant = id;
  outcome.machine = m;  // the machine whose survivors were repaired
  outcome.objective = FleetObjective();
  return outcome;
}

void AdvisorService::HandleDriftRun(std::vector<Event>& batch) {
  VDBA_CHECK(!batch.empty());
  EventOutcome outcome;
  const int id = batch.front().tenant_id;
  if (id < 0 || static_cast<size_t>(id) >= tenants_.size() ||
      !tenants_[static_cast<size_t>(id)].active) {
    // Activity cannot change inside a run (only drifts sit between the
    // batch's events in its lane), so one verdict covers the whole run —
    // exactly the refusals a serial replay would emit one by one.
    outcome.error = "drift refused: unknown or departed tenant id " +
                    std::to_string(id);
    for (Event& event : batch) Complete(event, outcome);
    return;
  }
  const int m = tenants_[static_cast<size_t>(id)].machine;
  const int slot = tenants_[static_cast<size_t>(id)].slot;
  MachineState& ms = machines_[static_cast<size_t>(m)];

  // Coalescing: one repair priced at the LATEST workload of the run. The
  // earlier events' workloads are superseded before anything priced them
  // (SetWorkload overwrites + invalidates the same slot), which is the
  // whole saving.
  Event& last = batch.back();
  {
    std::lock_guard lock(state_mu_);
    tenants_[static_cast<size_t>(id)].original.workload = last.workload;
  }
  // SetWorkload = targeted invalidation: only this tenant's cache entries
  // and observations drop; its machine-mates' stay warm.
  ms.estimator->SetWorkload(slot, std::move(last.workload));
  if (batch.size() > 1) {
    std::lock_guard lock(state_mu_);
    coalesced_drifts_ += static_cast<long>(batch.size()) - 1;
  }

  // Warm repair from the incumbent allocation itself: if the drift was a
  // no-op the repair terminates there and the commit is bit-identical.
  const std::vector<int> slots = ms.OccupiedSlots();
  std::vector<simvm::ResourceVector> seeds;
  seeds.reserve(slots.size());
  for (int s : slots) seeds.push_back(ms.slot_alloc[static_cast<size_t>(s)]);
  RepairMachine(m, std::move(seeds));
  // The drifted workload's full-machine demand, read after the repair has
  // priced it inside a batch (greedy's warm-up probes every tenant's full
  // machine first), so the read is a cache hit. Load feeds only admission
  // and migration rollback; neither runs before this point.
  const int dims = ms.machine.hardware.resources->dims();
  const double demand = ms.estimator->EstimateSeconds(
      slot, simvm::ResourceVector::Full(dims));
  {
    std::lock_guard lock(state_mu_);
    ms.load += demand - ms.slot_demand[static_cast<size_t>(slot)];
    ms.slot_demand[static_cast<size_t>(slot)] = demand;
  }
  outcome.migrations = MaybeMigrate(m);

  outcome.ok = true;
  outcome.tenant = id;
  outcome.machine = tenants_[static_cast<size_t>(id)].machine;
  outcome.objective = FleetObjective();
  // Every event of the run resolves with the shared outcome: an absorbed
  // drift WAS handled — at the price of the run, not per event.
  for (Event& event : batch) Complete(event, outcome);
}

EventOutcome AdvisorService::HandleReconfigure() {
  EventOutcome outcome;
  double worst_saturation = -1.0;
  int worst_machine = -1;
  for (int m = 0; m < num_machines(); ++m) {
    MachineState& ms = machines_[static_cast<size_t>(m)];
    const std::vector<int> slots = ms.OccupiedSlots();
    if (slots.empty()) continue;
    std::vector<simvm::ResourceVector> seeds;
    seeds.reserve(slots.size());
    for (int s : slots) {
      seeds.push_back(ms.slot_alloc[static_cast<size_t>(s)]);
    }
    RepairMachine(m, std::move(seeds));
    if (!MigrationArmed()) continue;
    const advisor::ReliefProbe probe = advisor::ProbeRelief(
        ms.estimator.get(), slots, ms.slot_alloc, ms.slot_cost);
    double saturation = 0.0;
    if (probe.MostSaturated(&saturation) >= 0 &&
        saturation > worst_saturation) {
      worst_saturation = saturation;
      worst_machine = m;
    }
  }
  if (worst_machine >= 0) {
    outcome.migrations = MaybeMigrate(worst_machine);
  }
  outcome.ok = true;
  outcome.objective = FleetObjective();
  return outcome;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

double AdvisorService::FleetObjective() const {
  std::lock_guard lock(state_mu_);
  return FleetObjectiveLocked();
}

double AdvisorService::FleetObjectiveLocked() const {
  double total = 0.0;
  for (const MachineState& ms : machines_) total += ms.cost;
  return total;
}

std::vector<int> AdvisorService::GlobalViolationsLocked() const {
  std::vector<int> violated;
  for (const MachineState& ms : machines_) {
    for (int slot : ms.violated_slots) {
      violated.push_back(ms.slot_tenant[static_cast<size_t>(slot)]);
    }
  }
  std::sort(violated.begin(), violated.end());
  return violated;
}

FleetSnapshot AdvisorService::Snapshot() const {
  std::lock_guard lock(state_mu_);
  FleetSnapshot snapshot;
  snapshot.assignment.assign(tenants_.size(), -1);
  snapshot.allocations.resize(tenants_.size());
  snapshot.estimated_seconds.assign(tenants_.size(), 0.0);
  for (size_t id = 0; id < tenants_.size(); ++id) {
    const TenantState& ts = tenants_[id];
    if (!ts.active) continue;
    const MachineState& ms = machines_[static_cast<size_t>(ts.machine)];
    snapshot.assignment[id] = ts.machine;
    snapshot.allocations[id] = ms.slot_alloc[static_cast<size_t>(ts.slot)];
    snapshot.estimated_seconds[id] =
        ms.slot_cost[static_cast<size_t>(ts.slot)];
    ++snapshot.active_tenants;
  }
  snapshot.violated_qos = GlobalViolationsLocked();
  snapshot.objective = FleetObjectiveLocked();
  snapshot.events_handled = events_handled_;
  snapshot.coalesced_drifts = coalesced_drifts_;
  return snapshot;
}

}  // namespace vdba::service
