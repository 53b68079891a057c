// Fleet-scale placement (beyond the paper): bin-pack tenants across many
// heterogeneous physical machines, then run the per-PM advisor inside each
// bin.
//
// The paper solves N tenants on ONE PhysicalMachine; production means
// thousands of tenants across hundreds of heterogeneous boxes ("Towards
// Building Autonomous Data Services on Azure" describes this exact
// advisor-behind-a-control-plane shape). FleetAdvisor composes the
// existing machinery: a pluggable PlacementPolicy (mirroring the
// SearchStrategy registry) assigns tenants to machines from a what-if
// demand matrix, every bin is solved by the ordinary
// VirtualizationDesignAdvisor (per-PM solves fan out over
// util::ThreadPool), and a migration repair loop proposes cross-machine
// moves — a move type no single-PM enumerator can express — accepting
// only cost-improving, QoS-respecting ones. All estimation goes through
// the batched CostEstimator entry points (EstimateMany), so PR 3's
// cross-tenant fan-out applies inside every bin and saturation probe.
// The migration policy itself (relief probe, destination, candidate
// ranking, acceptance) is a set of free functions below, shared with the
// resident AdvisorService's saturation repair.
#ifndef VDBA_ADVISOR_FLEET_ADVISOR_H_
#define VDBA_ADVISOR_FLEET_ADVISOR_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/tenant.h"
#include "calib/calibration_model.h"
#include "simdb/types.h"
#include "simvm/hardware.h"
#include "util/thread_pool.h"

namespace vdba::advisor {

/// Slack of every fleet-level capacity and objective comparison (the
/// role kShareEpsilon plays in the enumerators): a value must beat
/// another by more than this to count as better.
inline constexpr double kFleetEpsilon = 1e-12;

/// One physical machine in the fleet: the hardware plus the per-flavor
/// calibration models measured ON IT. Calibration is per-DBMS-per-machine
/// (§4.3), so a tenant's R -> P mapping must be re-bound whenever it lands
/// on — or migrates to — a different box. Null calibration pointers fall
/// back to the tenant's own model (correct for homogeneous fleets where
/// every box matches the machine the tenants were calibrated on).
struct FleetMachine {
  simvm::PhysicalMachine hardware;
  const calib::CalibrationModel* pg_calibration = nullptr;
  const calib::CalibrationModel* db2_calibration = nullptr;

  /// Model for `flavor` on this box; null when the tenant's own applies.
  const calib::CalibrationModel* CalibrationFor(
      simdb::EngineFlavor flavor) const {
    return flavor == simdb::EngineFlavor::kPostgres ? pg_calibration
                                                    : db2_calibration;
  }

  /// `tenant` with its calibration re-bound to this box's model for its
  /// flavor; unchanged when the box has none or the tenant has no engine.
  Tenant Bind(Tenant tenant) const;
};

/// True when two fleet machines are interchangeable for what-if
/// estimation: identical hardware capacities, the same ResourceModel, and
/// the same calibration bindings. The estimate is a pure function of
/// exactly these inputs, so classmates get bit-identical demand columns.
/// PhysicalMachine::name is deliberately excluded (purely descriptive).
/// FleetAdvisor's shared demand probing and the resident AdvisorService's
/// per-class probe reuse both key off this.
bool SameMachineClass(const FleetMachine& a, const FleetMachine& b);

// ---------------------------------------------------------------------------
// Migration policy: the rules FleetAdvisor's repair loop and the resident
// AdvisorService's saturation repair share. Each caller keeps only its own
// orchestration: the fleet scans every (machine, dimension) for a source
// and re-solves the pair cold; the service fires on a threshold, never
// empties a machine, and moves warm with an exact rollback.
// ---------------------------------------------------------------------------

/// What one machine's incumbent would gain were a dimension uncontended.
struct ReliefProbe {
  /// relief[j][d]: estimated seconds probed tenant j would save were
  /// dimension d of its allocation at share 1.0 (floored at 0).
  std::vector<std::vector<double>> relief;
  /// saturation[d]: gain-weighted relief summed over the tenants — the
  /// objective seconds this machine's scarcity of d costs.
  std::vector<double> saturation;

  /// The most saturated dimension that beats *worst by more than
  /// kFleetEpsilon (ties within it go to the lower index), raising *worst
  /// to its saturation; -1, with *worst unchanged, when none does.
  int MostSaturated(double* worst) const;
};

/// Relief of tenants `slots` of `estimator` at allocations[slot] against
/// their incumbent seconds[slot], in one cross-tenant EstimateMany
/// fan-out. Rows follow `slots`; each tenant's relief is weighted by its
/// QosSpec::gain_factor in the saturation.
ReliefProbe ProbeRelief(WhatIfCostEstimator* estimator,
                        const std::vector<int>& slots,
                        const std::vector<simvm::ResourceVector>& allocations,
                        const std::vector<double>& seconds);

/// Destination of a move off `source`: the other machine with the least
/// gain-weighted incumbent cost `cost(m)` (ties within kFleetEpsilon go to
/// the lower index), -1 when there is none.
int LeastLoadedMachine(int num_machines, int source,
                       const std::function<double(int)>& cost);

/// Move candidates of a saturated machine: rows of `probe.relief`, worst
/// relief on `dim` first (ties: lower row), at most `max_candidates`.
std::vector<int> RankMoveCandidates(const ReliefProbe& probe, int dim,
                                    int max_candidates);

/// Whether a cross-machine move is kept: the pair's gain-weighted cost
/// must fall by more than kFleetEpsilon, and every tenant (global id)
/// violating its degradation limit after the move must have violated it
/// before — migration never makes QoS worse.
bool AcceptMove(double old_cost, const std::set<int>& old_violations,
                double new_cost, const std::set<int>& new_violations);

/// What a PlacementPolicy packs by. Demands are WHAT-IF estimates probed
/// through each machine's calibrated estimator, so machine heterogeneity
/// (CPU speed, memory size, NIC speed via the per-machine calibration) is
/// already folded in: a data-shipping-heavy tenant simply demands fewer
/// seconds on a net-fast box.
struct PlacementInput {
  int num_machines = 0;
  /// demand[i][m]: estimated seconds of tenant i's whole workload at 100%
  /// of machine m (the tenant running alone on that box).
  std::vector<std::vector<double>> demand;
  /// Per-machine bin capacity in machine-local seconds: the perfectly
  /// balanced fleet load times the configured headroom. A policy may
  /// overflow a bin when nothing fits (bins have no hard physical limit —
  /// overfull just means slower), but should treat capacity as the
  /// balance target.
  std::vector<double> capacity;

  int num_tenants() const { return static_cast<int>(demand.size()); }
};

/// \brief Abstract tenant-to-machine placement: policy over the demand
/// matrix, mirroring SearchStrategy's policy-over-mechanism split.
///
/// Contract: Place() returns exactly one machine index in
/// [0, num_machines) per tenant; implementations must be deterministic
/// (identical PlacementInput -> identical assignment, with ties broken by
/// the lowest index) and stateless across calls (one instance may serve
/// many fleets). Policies never call estimators — the FleetAdvisor probes
/// the demand matrix once, through EstimateMany, before placement.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// \brief Assigns every tenant to a machine.
  /// \param input Demand matrix and per-machine capacities; never empty.
  /// \returns assignment[i] = machine index of tenant i.
  virtual std::vector<int> Place(const PlacementInput& input) const = 0;

  /// Registry key of this policy (what MakePlacementPolicy resolves).
  virtual std::string_view name() const = 0;
};

/// Selects and parameterizes a placement policy; the string key lets
/// benches/configs sweep policies without code changes, exactly like
/// SearchSpec::strategy.
struct PlacementSpec {
  /// Registered keys: "first_fit_decreasing" (default; see
  /// FirstFitDecreasingPolicy), "round_robin" (demand-blind baseline).
  std::string policy = "first_fit_decreasing";
  /// Bin capacity multiplier over the perfectly balanced per-machine
  /// load. 1.0 forces near-perfect balance; larger values let the policy
  /// trade balance for affinity (placing a tenant on the machine where it
  /// is cheapest even when that machine is already busier).
  double headroom = 1.2;
};

/// First-fit-decreasing over estimated resource demand: tenants sorted by
/// their best-machine demand (largest first) are offered to machines in
/// ascending order of that tenant's demand on the machine (cheapest box
/// first — this is what routes shipping-heavy tenants to net-fast
/// hardware); the first machine whose projected load stays within
/// capacity takes the tenant, and when none fits the machine with the
/// least loaded outcome does.
class FirstFitDecreasingPolicy : public PlacementPolicy {
 public:
  std::vector<int> Place(const PlacementInput& input) const override;
  std::string_view name() const override { return "first_fit_decreasing"; }
};

/// Demand-blind round-robin (tenant i -> machine i mod P): the control
/// arm every demand-aware policy must beat.
class RoundRobinPolicy : public PlacementPolicy {
 public:
  std::vector<int> Place(const PlacementInput& input) const override;
  std::string_view name() const override { return "round_robin"; }
};

/// Builds the policy `spec.policy` names. Aborts (VDBA_CHECK) on an
/// unregistered key, listing the known ones.
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(
    const PlacementSpec& spec);

/// Keys MakePlacementPolicy accepts, in registry order.
std::vector<std::string> RegisteredPlacementPolicies();

/// FleetAdvisor configuration.
struct FleetOptions {
  /// Which policy bin-packs tenants onto machines, and its knobs.
  PlacementSpec placement;
  /// Per-PM solve configuration (search strategy, move grid, estimator) —
  /// the same AdvisorOptions a standalone VirtualizationDesignAdvisor
  /// takes, applied inside every bin.
  AdvisorOptions advisor;
  /// Run the cross-machine migration repair loop after per-PM
  /// convergence.
  bool migrate = true;
  /// Cap on ACCEPTED migrations (each accepted move re-solves two bins).
  int max_migrations = 8;
  /// Tenants offered per repair round (worst-degraded first) before the
  /// loop declares convergence.
  int migration_candidates = 3;
  /// Worker threads of the fleet-level solve fan-out; 0 picks the
  /// hardware-derived ThreadPool default. Results are identical for every
  /// thread count.
  int threads = 0;
};

/// One machine's slice of the fleet recommendation.
struct MachineRecommendation {
  /// Global tenant ids placed on this machine, ascending. May be empty
  /// (an idle box).
  std::vector<int> tenants;
  /// The per-PM advisor's recommendation for exactly those tenants, in
  /// the same order (default-constructed for idle boxes).
  Recommendation recommendation;
};

/// A fleet-wide recommendation.
struct FleetRecommendation {
  /// assignment[i] = machine index of tenant i (post-migration).
  std::vector<int> assignment;
  /// Per-tenant allocation ON ITS MACHINE (dimensions follow that
  /// machine's ResourceModel).
  std::vector<simvm::ResourceVector> allocations;
  /// Per-tenant estimated completion seconds at the recommendation.
  std::vector<double> estimated_seconds;
  /// Fleet objective: sum of gain-weighted estimated seconds over every
  /// tenant. Seconds on different machines are directly comparable (each
  /// is that tenant's predicted wall time on its box).
  double total_cost = 0.0;
  /// Global ids of tenants whose degradation limit could not be met.
  std::vector<int> violated_qos;
  /// Per-machine detail, indexed like the constructor's machine vector.
  std::vector<MachineRecommendation> machines;
  /// Accepted cross-machine migrations / proposals evaluated.
  int migrations = 0;
  int migration_attempts = 0;
  /// Names of the placement policy and per-PM search strategy used.
  std::string policy;
  std::string strategy;
};

/// \brief The fleet advisor: bin-packs tenants across heterogeneous
/// machines and solves each bin with the ordinary per-PM advisor.
///
/// Contract: Recommend() is deterministic — identical (machines, tenants,
/// options) inputs yield bit-identical FleetRecommendations for every
/// FleetOptions::threads value (bin solves are independent and the
/// estimator contract guarantees thread-count-invariant values). With a
/// single machine the result is bit-identical to
/// VirtualizationDesignAdvisor::Recommend() on that machine (placement
/// and migration both degenerate to no-ops). Accepted migrations never
/// introduce a QoS violation that the pre-move state did not already
/// have, and never increase total_cost.
class FleetAdvisor {
 public:
  /// \param machines At least one machine; FleetMachine calibrations bind
  ///   tenants to each box's own §4.3 models (null = keep the tenant's).
  /// \param tenants At least one tenant; ids are indices into this vector.
  FleetAdvisor(std::vector<FleetMachine> machines, std::vector<Tenant> tenants,
               FleetOptions options = FleetOptions());

  /// Places, solves every bin, then (optionally) runs migration repair.
  FleetRecommendation Recommend();

  /// \brief demand[i][m] for all tenants x machines: estimated seconds of
  /// tenant i's whole workload running alone at 100% of machine m.
  ///
  /// Probed once per MACHINE CLASS, not once per machine: one
  /// EstimateMany per class representative, fanned over the fleet pool,
  /// and its column copied to every classmate. Boxes with identical
  /// hardware capacities, resource model and calibration bindings get
  /// bit-identical estimates (the what-if computation is a pure function
  /// of both — see SameMachineClass), and fleets are typically a few SKUs
  /// replicated many times, so this collapses the dominant probing cost.
  /// Exposed for benches/tests; Recommend() calls it internally.
  std::vector<std::vector<double>> ProbeDemandMatrix();

  /// Demand columns actually probed by the last ProbeDemandMatrix call:
  /// the number of distinct machine classes.
  int demand_columns_probed() const { return demand_columns_probed_; }

  int num_machines() const { return static_cast<int>(machines_.size()); }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const FleetOptions& options() const { return options_; }

 private:
  struct BinState;

  /// Solves one bin and probes its per-dimension saturation relief.
  BinState SolveBin(int machine, std::vector<int> tenant_ids) const;

  std::vector<FleetMachine> machines_;
  std::vector<Tenant> tenants_;
  FleetOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  int demand_columns_probed_ = 0;
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_FLEET_ADVISOR_H_
