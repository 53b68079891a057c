#include "advisor/fleet_advisor.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

Tenant FleetMachine::Bind(Tenant tenant) const {
  if (tenant.engine != nullptr) {
    const calib::CalibrationModel* model =
        CalibrationFor(tenant.engine->flavor());
    if (model != nullptr) tenant.calibration = model;
  }
  return tenant;
}

bool SameMachineClass(const FleetMachine& a, const FleetMachine& b) {
  return a.hardware.cpu_ops_per_sec == b.hardware.cpu_ops_per_sec &&
         a.hardware.memory_mb == b.hardware.memory_mb &&
         a.hardware.seq_page_ms == b.hardware.seq_page_ms &&
         a.hardware.rand_page_ms == b.hardware.rand_page_ms &&
         a.hardware.write_page_ms == b.hardware.write_page_ms &&
         a.hardware.log_ms_per_mb == b.hardware.log_ms_per_mb &&
         a.hardware.net_page_ms == b.hardware.net_page_ms &&
         a.hardware.resources == b.hardware.resources &&
         a.pg_calibration == b.pg_calibration &&
         a.db2_calibration == b.db2_calibration;
}

// ---------------------------------------------------------------------------
// Migration policy
// ---------------------------------------------------------------------------

int ReliefProbe::MostSaturated(double* worst) const {
  int dim = -1;
  for (size_t d = 0; d < saturation.size(); ++d) {
    if (saturation[d] > *worst + kFleetEpsilon) {
      *worst = saturation[d];
      dim = static_cast<int>(d);
    }
  }
  return dim;
}

ReliefProbe ProbeRelief(WhatIfCostEstimator* estimator,
                        const std::vector<int>& slots,
                        const std::vector<simvm::ResourceVector>& allocations,
                        const std::vector<double>& seconds) {
  const int dims = estimator->num_dims();
  std::vector<TenantAllocation> probes;
  probes.reserve(slots.size() * static_cast<size_t>(dims));
  for (int slot : slots) {
    for (int d = 0; d < dims; ++d) {
      simvm::ResourceVector r = allocations[static_cast<size_t>(slot)];
      r.set(d, 1.0);
      probes.push_back(TenantAllocation{slot, r});
    }
  }
  std::vector<double> relieved = estimator->EstimateMany(probes);

  ReliefProbe probe;
  probe.relief.assign(slots.size(),
                      std::vector<double>(static_cast<size_t>(dims), 0.0));
  probe.saturation.assign(static_cast<size_t>(dims), 0.0);
  for (size_t j = 0; j < slots.size(); ++j) {
    const size_t slot = static_cast<size_t>(slots[j]);
    const double gain = estimator->tenants()[slot].qos.gain_factor;
    for (int d = 0; d < dims; ++d) {
      double saved = seconds[slot] - relieved[j * static_cast<size_t>(dims) +
                                              static_cast<size_t>(d)];
      double relief = std::max(0.0, saved);
      probe.relief[j][static_cast<size_t>(d)] = relief;
      probe.saturation[static_cast<size_t>(d)] += gain * relief;
    }
  }
  return probe;
}

int LeastLoadedMachine(int num_machines, int source,
                       const std::function<double(int)>& cost) {
  int dst = -1;
  double least = std::numeric_limits<double>::infinity();
  for (int m = 0; m < num_machines; ++m) {
    if (m == source) continue;
    const double load = cost(m);
    if (load < least - kFleetEpsilon) {
      least = load;
      dst = m;
    }
  }
  return dst;
}

std::vector<int> RankMoveCandidates(const ReliefProbe& probe, int dim,
                                    int max_candidates) {
  std::vector<int> rows(probe.relief.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](int a, int b) {
    return probe.relief[static_cast<size_t>(a)][static_cast<size_t>(dim)] >
           probe.relief[static_cast<size_t>(b)][static_cast<size_t>(dim)];
  });
  if (rows.size() > static_cast<size_t>(max_candidates)) {
    rows.resize(static_cast<size_t>(max_candidates));
  }
  return rows;
}

bool AcceptMove(double old_cost, const std::set<int>& old_violations,
                double new_cost, const std::set<int>& new_violations) {
  return new_cost < old_cost - kFleetEpsilon &&
         std::includes(old_violations.begin(), old_violations.end(),
                       new_violations.begin(), new_violations.end());
}

// ---------------------------------------------------------------------------
// Placement policies
// ---------------------------------------------------------------------------

std::vector<int> FirstFitDecreasingPolicy::Place(
    const PlacementInput& input) const {
  const int t = input.num_tenants();
  const int p = input.num_machines;

  // Decreasing order of intrinsic demand (the tenant's cost on its best
  // machine); stable sort + index tie-break keeps placement deterministic.
  std::vector<double> best(static_cast<size_t>(t));
  for (int i = 0; i < t; ++i) {
    const auto& row = input.demand[static_cast<size_t>(i)];
    best[static_cast<size_t>(i)] = *std::min_element(row.begin(), row.end());
  }
  std::vector<int> order(static_cast<size_t>(t));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return best[static_cast<size_t>(a)] > best[static_cast<size_t>(b)];
  });

  std::vector<double> load(static_cast<size_t>(p), 0.0);
  std::vector<int> assignment(static_cast<size_t>(t), 0);
  std::vector<int> machine_order(static_cast<size_t>(p));
  for (int i : order) {
    const auto& row = input.demand[static_cast<size_t>(i)];
    // "First fit" scans machines cheapest-for-this-tenant first, so a
    // shipping-heavy tenant tries the net-fast box before anything else.
    std::iota(machine_order.begin(), machine_order.end(), 0);
    std::stable_sort(machine_order.begin(), machine_order.end(),
                     [&](int a, int b) {
                       return row[static_cast<size_t>(a)] <
                              row[static_cast<size_t>(b)];
                     });
    int chosen = -1;
    for (int m : machine_order) {
      if (load[static_cast<size_t>(m)] + row[static_cast<size_t>(m)] <=
          input.capacity[static_cast<size_t>(m)] + kFleetEpsilon) {
        chosen = m;
        break;
      }
    }
    if (chosen < 0) {
      // Nothing fits: overflow into the machine with the least loaded
      // outcome (bins have no hard limit — overfull just means slower).
      double best_load = std::numeric_limits<double>::infinity();
      for (int m = 0; m < p; ++m) {
        double projected =
            load[static_cast<size_t>(m)] + row[static_cast<size_t>(m)];
        if (projected < best_load - kFleetEpsilon) {
          best_load = projected;
          chosen = m;
        }
      }
    }
    assignment[static_cast<size_t>(i)] = chosen;
    load[static_cast<size_t>(chosen)] += row[static_cast<size_t>(chosen)];
  }
  return assignment;
}

std::vector<int> RoundRobinPolicy::Place(const PlacementInput& input) const {
  std::vector<int> assignment(static_cast<size_t>(input.num_tenants()));
  for (int i = 0; i < input.num_tenants(); ++i) {
    assignment[static_cast<size_t>(i)] = i % input.num_machines;
  }
  return assignment;
}

namespace {

using PolicyFactory =
    std::function<std::unique_ptr<PlacementPolicy>(const PlacementSpec&)>;

/// Registry keyed by policy name (ordered, so listings are stable) —
/// the placement mirror of search_strategy.cc's strategy registry.
const std::map<std::string, PolicyFactory>& PolicyRegistry() {
  static const auto* registry = new std::map<std::string, PolicyFactory>{
      {"first_fit_decreasing",
       [](const PlacementSpec&) {
         return std::make_unique<FirstFitDecreasingPolicy>();
       }},
      {"round_robin",
       [](const PlacementSpec&) {
         return std::make_unique<RoundRobinPolicy>();
       }},
  };
  return *registry;
}

}  // namespace

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(
    const PlacementSpec& spec) {
  auto it = PolicyRegistry().find(spec.policy);
  if (it == PolicyRegistry().end()) {
    std::string known;
    for (const auto& [key, factory] : PolicyRegistry()) {
      (void)factory;
      if (!known.empty()) known += ", ";
      known += key;
    }
    VDBA_CHECK_MSG(false, "unknown placement policy '%s' (registered: %s)",
                   spec.policy.c_str(), known.c_str());
  }
  return it->second(spec);
}

std::vector<std::string> RegisteredPlacementPolicies() {
  std::vector<std::string> names;
  names.reserve(PolicyRegistry().size());
  for (const auto& [key, factory] : PolicyRegistry()) {
    (void)factory;
    names.push_back(key);
  }
  return names;
}

// ---------------------------------------------------------------------------
// FleetAdvisor
// ---------------------------------------------------------------------------

/// One solved bin: its tenants, the per-PM recommendation, and the
/// saturation-relief probes the migration loop steers by.
struct FleetAdvisor::BinState {
  std::vector<int> tenant_ids;  ///< Global ids, ascending.
  Recommendation rec;
  /// Gain-weighted estimated seconds of the bin's tenants.
  double cost = 0.0;
  /// Relief rows follow tenant_ids (empty for an idle box). The most
  /// saturated (machine, dimension) pair is the migration loop's source.
  ReliefProbe relief;
};

FleetAdvisor::FleetAdvisor(std::vector<FleetMachine> machines,
                           std::vector<Tenant> tenants, FleetOptions options)
    : machines_(std::move(machines)),
      tenants_(std::move(tenants)),
      options_(std::move(options)) {
  VDBA_CHECK(!machines_.empty());
  VDBA_CHECK(!tenants_.empty());
  VDBA_CHECK_GT(options_.placement.headroom, 0.0);
  for (const FleetMachine& m : machines_) {
    VDBA_CHECK(m.hardware.resources != nullptr);
  }
}

/// The plan memo of each machine class: the statement memo the class's
/// demand probe filled, which every bin solve on a machine of the class
/// prices through until the plan returns. Each memo's anchor references
/// every statement class a bin of the machine class can use: without
/// it, a memo would empty whenever no bin estimator is alive, for
/// instance between two migration attempts.
struct FleetAdvisor::PlanMemos {
  /// One per machine class, in order of the classes' first machines.
  std::vector<std::unique_ptr<WhatIfCostEstimator>> anchors;
  /// Per machine, its class: an index into anchors.
  std::vector<size_t> class_of;

  /// Machine m's memo; null before a demand probe (single-machine
  /// fleets), which gives every solve a private memo.
  std::shared_ptr<StatementMemo> For(int m) const {
    if (anchors.empty()) return nullptr;
    return anchors[class_of[static_cast<size_t>(m)]]->memo();
  }
};

std::vector<std::vector<double>> FleetAdvisor::ProbeDemandMatrix() {
  return ProbeDemand(nullptr);
}

std::vector<std::vector<double>> FleetAdvisor::ProbeDemand(PlanMemos* memos) {
  const int t = num_tenants();
  const int p = num_machines();
  if (pool_ == nullptr && p > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  // demand[i][m], filled one machine (column) at a time.
  std::vector<std::vector<double>> demand(
      static_cast<size_t>(t), std::vector<double>(static_cast<size_t>(p)));

  // Machine classes: probe_list holds each class's first machine, and
  // class_of[m] is machine m's class. Only those first machines are
  // probed; classmates copy the column (their estimates are bit-identical
  // — see SameMachineClass). With `memos`, each class's probe memo is
  // kept as its plan memo.
  std::vector<size_t> class_of(static_cast<size_t>(p), 0);
  std::vector<size_t> probe_list;
  for (int m = 0; m < p; ++m) {
    size_t c = 0;
    while (c < probe_list.size() &&
           !SameMachineClass(machines_[probe_list[c]],
                             machines_[static_cast<size_t>(m)])) {
      ++c;
    }
    if (c == probe_list.size()) probe_list.push_back(static_cast<size_t>(m));
    class_of[static_cast<size_t>(m)] = c;
  }
  demand_columns_probed_ = static_cast<int>(probe_list.size());
  if (memos != nullptr) memos->anchors.resize(probe_list.size());

  // Columns fan across the fleet pool, so each machine's demand estimator
  // gets the smallest pool of its own: one worker, joined by the calling
  // thread, 2 threads per fan-out.
  WhatIfEstimatorOptions est_opts = options_.advisor.estimator;
  est_opts.batch_threads = 1;
  auto probe_machine = [&](size_t pi) {
    const size_t m = probe_list[pi];
    const FleetMachine& machine = machines_[m];
    std::vector<Tenant> bound;
    bound.reserve(static_cast<size_t>(t));
    for (int i = 0; i < t; ++i) {
      bound.push_back(machine.Bind(tenants_[static_cast<size_t>(i)]));
    }
    WhatIfCostEstimator estimator(machine.hardware, bound, est_opts);
    const int dims = machine.hardware.resources->dims();
    std::vector<TenantAllocation> probes;
    probes.reserve(static_cast<size_t>(t));
    for (int i = 0; i < t; ++i) {
      probes.push_back(TenantAllocation{i, simvm::ResourceVector::Full(dims)});
    }
    std::vector<double> est = estimator.EstimateMany(probes);
    for (int i = 0; i < t; ++i) {
      demand[static_cast<size_t>(i)][m] = est[static_cast<size_t>(i)];
    }
    if (memos == nullptr) return;
    // The anchor references each of the probe's statement classes once
    // (the plan keeps a few statements, not a copy of every tenant). It
    // never estimates, so unlike the probe estimator it keeps no pool
    // thread alive through the plan: an idle thread pins a malloc arena.
    std::vector<Tenant> anchor;
    for (Tenant& tenant : bound) {
      auto anchored = [&](const simdb::WorkloadStatement& stmt) {
        return std::any_of(anchor.begin(), anchor.end(), [&](const Tenant& a) {
          return a.engine == tenant.engine &&
                 a.calibration == tenant.calibration &&
                 std::any_of(a.workload.statements.begin(),
                             a.workload.statements.end(),
                             [&](const simdb::WorkloadStatement& held) {
                               return held.query == stmt.query;
                             });
        });
      };
      std::erase_if(tenant.workload.statements, anchored);
      // An estimator needs a tenant, even one with no statements.
      if (!tenant.workload.statements.empty() || anchor.empty()) {
        anchor.push_back(std::move(tenant));
      }
    }
    memos->anchors[pi] = std::make_unique<WhatIfCostEstimator>(
        machine.hardware, std::move(anchor), est_opts, estimator.memo());
  };
  if (pool_ != nullptr && probe_list.size() > 1) {
    pool_->ParallelFor(probe_list.size(), probe_machine);
  } else {
    for (size_t pi = 0; pi < probe_list.size(); ++pi) probe_machine(pi);
  }

  // Copy each class's column to its other machines.
  for (int m = 0; m < p; ++m) {
    const size_t r = probe_list[class_of[static_cast<size_t>(m)]];
    if (r == static_cast<size_t>(m)) continue;
    for (int i = 0; i < t; ++i) {
      demand[static_cast<size_t>(i)][static_cast<size_t>(m)] =
          demand[static_cast<size_t>(i)][r];
    }
  }
  if (memos != nullptr) memos->class_of = std::move(class_of);
  return demand;
}

FleetAdvisor::BinState FleetAdvisor::SolveBin(
    int machine, std::vector<int> tenant_ids,
    std::shared_ptr<StatementMemo> memo) const {
  BinState bin;
  bin.tenant_ids = std::move(tenant_ids);
  if (bin.tenant_ids.empty()) return bin;  // idle box
  const FleetMachine& fm = machines_[static_cast<size_t>(machine)];

  std::vector<Tenant> bound;
  bound.reserve(bin.tenant_ids.size());
  for (int id : bin.tenant_ids) {
    bound.push_back(fm.Bind(tenants_[static_cast<size_t>(id)]));
  }

  AdvisorOptions adv_opts = options_.advisor;
  if (num_machines() > 1) {
    // Bin solves already fan across the fleet pool, so each bin's
    // estimator gets the smallest pool of its own: one worker, joined by
    // the calling thread, 2 threads per fan-out (two concurrent migration
    // re-solves thus fill 4 hardware threads). The estimator contract
    // makes results thread-count invariant, so this changes no value.
    adv_opts.estimator.batch_threads = 1;
  }
  VirtualizationDesignAdvisor adv(fm.hardware, std::move(bound), adv_opts,
                                  std::move(memo));
  bin.rec = adv.Recommend();

  for (size_t j = 0; j < bin.tenant_ids.size(); ++j) {
    bin.cost += tenants_[static_cast<size_t>(bin.tenant_ids[j])]
                    .qos.gain_factor *
                bin.rec.estimated_seconds[j];
  }
  std::vector<int> rows(bin.tenant_ids.size());
  std::iota(rows.begin(), rows.end(), 0);
  bin.relief = ProbeRelief(adv.estimator(), rows, bin.rec.allocations,
                           bin.rec.estimated_seconds);
  return bin;
}

FleetRecommendation FleetAdvisor::Recommend() {
  const int t = num_tenants();
  const int p = num_machines();
  if (pool_ == nullptr && p > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }

  FleetRecommendation result;
  result.policy = options_.placement.policy;
  result.strategy = options_.advisor.search.strategy;

  // --- Placement ---------------------------------------------------------
  PlanMemos memos;
  if (p == 1) {
    // Trivial fleet: skip the demand probes so the single-PM path does
    // exactly what a standalone advisor does.
    result.assignment.assign(static_cast<size_t>(t), 0);
  } else {
    PlacementInput input;
    input.num_machines = p;
    input.demand = ProbeDemand(&memos);
    // Balanced-load capacity: distributing work proportionally to machine
    // speed gives every box the same local-seconds load W / sum(speed);
    // headroom scales that shared target.
    double total_best = 0.0;
    std::vector<double> speed(static_cast<size_t>(p), 0.0);
    for (int i = 0; i < t; ++i) {
      const auto& row = input.demand[static_cast<size_t>(i)];
      double best = *std::min_element(row.begin(), row.end());
      total_best += best;
      for (int m = 0; m < p; ++m) {
        double d = row[static_cast<size_t>(m)];
        speed[static_cast<size_t>(m)] += d > 0.0 ? best / d : 1.0;
      }
    }
    double total_speed = 0.0;
    for (double& s : speed) {
      s /= t;
      total_speed += s;
    }
    input.capacity.assign(
        static_cast<size_t>(p),
        options_.placement.headroom * total_best / total_speed);

    result.assignment = MakePlacementPolicy(options_.placement)->Place(input);
    VDBA_CHECK_EQ(result.assignment.size(), static_cast<size_t>(t));
    for (int m : result.assignment) {
      VDBA_CHECK_GE(m, 0);
      VDBA_CHECK_LT(m, p);
    }
  }

  // --- Per-PM solves (fanned over the fleet pool) ------------------------
  std::vector<std::vector<int>> bins(static_cast<size_t>(p));
  for (int i = 0; i < t; ++i) {
    bins[static_cast<size_t>(result.assignment[static_cast<size_t>(i)])]
        .push_back(i);
  }
  std::vector<BinState> solved(static_cast<size_t>(p));
  auto solve = [&](size_t m) {
    solved[m] = SolveBin(static_cast<int>(m), bins[m],
                         memos.For(static_cast<int>(m)));
  };
  if (pool_ != nullptr && p > 1) {
    pool_->ParallelFor(static_cast<size_t>(p), solve);
  } else {
    for (int m = 0; m < p; ++m) solve(static_cast<size_t>(m));
  }

  // --- Migration repair ---------------------------------------------------
  if (options_.migrate && p > 1) {
    auto violations = [](const BinState& a, const BinState& b) {
      std::set<int> ids;
      for (const BinState* bin : {&a, &b}) {
        for (int local : bin->rec.violated_qos) {
          ids.insert(bin->tenant_ids[static_cast<size_t>(local)]);
        }
      }
      return ids;
    };
    while (result.migrations < options_.max_migrations) {
      // Source: the (machine, dimension) whose scarcity costs the fleet
      // the most objective seconds.
      int src = -1, dim = -1;
      double worst = 0.0;
      for (int m = 0; m < p; ++m) {
        const int d = solved[static_cast<size_t>(m)].relief.MostSaturated(
            &worst);
        if (d >= 0) {
          src = m;
          dim = d;
        }
      }
      if (src < 0) break;  // nothing is contended anywhere
      const int dst = LeastLoadedMachine(p, src, [&](int m) {
        return solved[static_cast<size_t>(m)].cost;
      });
      if (dst < 0) break;

      const BinState& src_bin = solved[static_cast<size_t>(src)];
      const BinState& dst_bin = solved[static_cast<size_t>(dst)];
      const std::set<int> old_violations = violations(src_bin, dst_bin);
      const double old_pair_cost = src_bin.cost + dst_bin.cost;
      bool accepted = false;
      for (int cand : RankMoveCandidates(src_bin.relief, dim,
                                         options_.migration_candidates)) {
        const int mover = src_bin.tenant_ids[static_cast<size_t>(cand)];
        ++result.migration_attempts;

        std::vector<int> src_ids, dst_ids = dst_bin.tenant_ids;
        for (int id : src_bin.tenant_ids) {
          if (id != mover) src_ids.push_back(id);
        }
        dst_ids.insert(
            std::upper_bound(dst_ids.begin(), dst_ids.end(), mover), mover);

        // Re-solve of both bins, side by side on the fleet pool: cold
        // tenant caches over the warm plan memos. Each SolveBin is const
        // and fans out on its own estimator's pool, and the memos hold
        // values only, so the pair gives the same bins as solving one
        // after the other.
        BinState new_src, new_dst;
        pool_->ParallelFor(2, [&](size_t k) {
          if (k == 0) {
            new_src = SolveBin(src, std::move(src_ids), memos.For(src));
          } else {
            new_dst = SolveBin(dst, std::move(dst_ids), memos.For(dst));
          }
        });
        if (AcceptMove(old_pair_cost, old_violations,
                       new_src.cost + new_dst.cost,
                       violations(new_src, new_dst))) {
          solved[static_cast<size_t>(src)] = std::move(new_src);
          solved[static_cast<size_t>(dst)] = std::move(new_dst);
          ++result.migrations;
          accepted = true;
          break;
        }
      }
      if (!accepted) break;  // repair converged
    }
  }

  // --- Assemble ------------------------------------------------------------
  result.allocations.resize(static_cast<size_t>(t));
  result.estimated_seconds.assign(static_cast<size_t>(t), 0.0);
  result.machines.resize(static_cast<size_t>(p));
  for (int m = 0; m < p; ++m) {
    BinState& bin = solved[static_cast<size_t>(m)];
    for (size_t j = 0; j < bin.tenant_ids.size(); ++j) {
      const int id = bin.tenant_ids[j];
      result.assignment[static_cast<size_t>(id)] = m;
      result.allocations[static_cast<size_t>(id)] = bin.rec.allocations[j];
      result.estimated_seconds[static_cast<size_t>(id)] =
          bin.rec.estimated_seconds[j];
    }
    for (int local : bin.rec.violated_qos) {
      result.violated_qos.push_back(
          bin.tenant_ids[static_cast<size_t>(local)]);
    }
    result.total_cost += bin.cost;
    result.machines[static_cast<size_t>(m)] =
        MachineRecommendation{std::move(bin.tenant_ids), std::move(bin.rec)};
  }
  std::sort(result.violated_qos.begin(), result.violated_qos.end());
  return result;
}

}  // namespace vdba::advisor
