#include "advisor/greedy_enumerator.h"

#include <array>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace vdba::advisor {

namespace {

/// Candidate moves of one tenant in one iteration: the +delta and -delta
/// estimates for each dimension (infeasible directions keep NaN).
struct TenantMoves {
  std::array<double, simvm::kMaxResourceDims> up_cost;
  std::array<double, simvm::kMaxResourceDims> down_cost;
  TenantMoves() {
    up_cost.fill(std::numeric_limits<double>::quiet_NaN());
    down_cost.fill(std::numeric_limits<double>::quiet_NaN());
  }
};

/// Evaluates the full cross-tenant frontier in one estimator fan-out and
/// folds the estimates back into per-tenant up/down cost tables.
std::vector<TenantMoves> EvaluateFrontier(
    CostEstimator* estimator, const std::vector<CandidateMove>& frontier,
    int n) {
  std::vector<TenantAllocation> probes;
  probes.reserve(frontier.size());
  for (const CandidateMove& mv : frontier) {
    probes.push_back(TenantAllocation{mv.tenant, mv.r});
  }
  std::vector<double> ests = estimator->EstimateMany(probes);
  std::vector<TenantMoves> moves(static_cast<size_t>(n));
  for (size_t s = 0; s < frontier.size(); ++s) {
    const CandidateMove& mv = frontier[s];
    (mv.up ? moves[static_cast<size_t>(mv.tenant)].up_cost
           : moves[static_cast<size_t>(mv.tenant)].down_cost)
        [static_cast<size_t>(mv.dim)] = ests[s];
  }
  return moves;
}

}  // namespace

EnumerationResult GreedyEnumerator::Run(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<simvm::ResourceVector> initial) const {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(static_cast<size_t>(n), qos.size());
  VDBA_CHECK_GT(options_.delta, 0.0);

  EnumerationResult result;
  result.allocations = initial.empty() ? DefaultAllocation(n, dims)
                                       : std::move(initial);
  VDBA_CHECK_EQ(result.allocations.size(), static_cast<size_t>(n));
  // An initial allocation with fewer dimensions than the estimator models
  // leaves the missing ones unallocated (share 1) rather than aborting in
  // the move loops.
  for (simvm::ResourceVector& r : result.allocations) r = r.Expanded(dims);

  // Full-allocation costs for degradation limits (Cost(W_i,[1,...,1]))
  // plus the starting-point costs, probed in one cross-tenant fan-out.
  std::vector<TenantAllocation> warmup;
  warmup.reserve(static_cast<size_t>(2 * n));
  for (int i = 0; i < n; ++i) {
    warmup.push_back(TenantAllocation{i, simvm::ResourceVector::Full(dims)});
  }
  for (int i = 0; i < n; ++i) {
    warmup.push_back(
        TenantAllocation{i, result.allocations[static_cast<size_t>(i)]});
  }
  std::vector<double> warmup_costs = estimator->EstimateMany(warmup);

  std::vector<double> full_cost(static_cast<size_t>(n), 0.0);
  // Current weighted costs C_i.
  std::vector<double> cost(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    full_cost[static_cast<size_t>(i)] = warmup_costs[static_cast<size_t>(i)];
    cost[static_cast<size_t>(i)] =
        qos[static_cast<size_t>(i)].gain_factor *
        warmup_costs[static_cast<size_t>(n + i)];
  }
  auto satisfies_limit = [&](int i, double unweighted_cost) {
    const QosSpec& q = qos[static_cast<size_t>(i)];
    if (!q.Constrained()) return true;
    return unweighted_cost <=
           q.degradation_limit * full_cost[static_cast<size_t>(i)];
  };

  // Annealing stage: every dimension starts at the coarsest step of its
  // schedule and refines only when the current frontier has no improving
  // move (options_.deltas; a plain single-delta search has one stage).
  int stage = 0;
  const int num_stages = options_.NumStages();

  bool done = false;
  while (!done && result.iterations < options_.max_iterations) {
    ++result.iterations;

    // The full cross-tenant move frontier of this iteration, evaluated in
    // a single estimator fan-out.
    std::vector<CandidateMove> frontier =
        MoveFrontier(result.allocations, options_, dims, stage);
    std::vector<TenantMoves> moves =
        EvaluateFrontier(estimator, frontier, n);

    double max_diff = 0.0;
    int best_gain_tenant = -1, best_lose_tenant = -1, best_dim = -1;
    double best_gain_cost = 0.0, best_lose_cost = 0.0;

    for (int dim = 0; dim < dims; ++dim) {
      if (!options_.Allocates(dim)) continue;

      // Who benefits most from +delta of resource `dim`?
      double max_gain = 0.0;
      int i_gain = -1;
      double gain_cost = 0.0;
      // Who suffers least from -delta?
      double min_loss = std::numeric_limits<double>::infinity();
      int i_lose = -1;
      double lose_cost = 0.0;

      for (int i = 0; i < n; ++i) {
        const size_t si = static_cast<size_t>(i);
        const QosSpec& q = qos[si];
        const TenantMoves& m = moves[si];

        double up = m.up_cost[static_cast<size_t>(dim)];
        if (!std::isnan(up)) {
          double c_up = q.gain_factor * up;
          double gain = cost[si] - c_up;
          if (gain > max_gain) {
            max_gain = gain;
            i_gain = i;
            gain_cost = c_up;
          }
        }
        double down = m.down_cost[static_cast<size_t>(dim)];
        if (!std::isnan(down)) {
          double c_down = q.gain_factor * down;
          double loss = c_down - cost[si];
          if (loss < min_loss && satisfies_limit(i, down)) {
            min_loss = loss;
            i_lose = i;
            lose_cost = c_down;
          }
        }
      }

      if (i_gain >= 0 && i_lose >= 0 && i_gain != i_lose &&
          max_gain - min_loss > max_diff) {
        max_diff = max_gain - min_loss;
        best_gain_tenant = i_gain;
        best_lose_tenant = i_lose;
        best_dim = dim;
        best_gain_cost = gain_cost;
        best_lose_cost = lose_cost;
      }
    }

    if (max_diff > 1e-12 && best_dim >= 0) {
      const double delta = options_.DeltaAt(best_dim, stage);
      simvm::ResourceVector& gain_r =
          result.allocations[static_cast<size_t>(best_gain_tenant)];
      simvm::ResourceVector& lose_r =
          result.allocations[static_cast<size_t>(best_lose_tenant)];
      gain_r = Raised(gain_r, best_dim, delta);
      lose_r = Lowered(lose_r, best_dim, delta);
      cost[static_cast<size_t>(best_gain_tenant)] = best_gain_cost;
      cost[static_cast<size_t>(best_lose_tenant)] = best_lose_cost;
    } else if (stage + 1 < num_stages) {
      // No improving move at the current steps: anneal every dimension to
      // the next (finer) entry of its schedule and keep searching.
      ++stage;
    } else {
      done = true;
    }
  }
  result.converged = done;

  // Feasibility restoration. Figure 11's moves only *constrain removals*
  // from QoS-limited workloads, which cannot satisfy a limit that the
  // equal-shares starting point already violates — yet the paper's Fig. 19
  // meets limits well below the default degradation. We therefore push
  // resources toward violating workloads, taking delta from the donor that
  // suffers least (and stays within its own limit), until every limit
  // holds or no legal move remains. Moves use each dimension's finest
  // step so restoration agrees with the annealed search grid. The current
  // unweighted costs come from one EstimateMany up front (cache hits on a
  // caching estimator: the warm-up or a frontier priced every current
  // allocation) and are carried across moves. Each round prices its
  // candidate moves in one EstimateMany: per allocated dimension where the
  // violator can rise by the finest step, its raise and then each donor's
  // cut, in scan order, so misses reach the estimator in the order the
  // scan reads them.
  struct RestoreMove {
    int dim;
    int donor;  ///< -1: the violator's raise in `dim`.
  };
  std::vector<TenantAllocation> current;
  current.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    current.push_back(
        TenantAllocation{i, result.allocations[static_cast<size_t>(i)]});
  }
  std::vector<double> now = estimator->EstimateMany(current);
  std::vector<TenantAllocation> probes;
  std::vector<RestoreMove> probe_moves;
  for (int guard = 0; guard < options_.max_iterations; ++guard) {
    int violator = -1;
    double worst = 1.0 + 1e-9;
    for (int i = 0; i < n; ++i) {
      const QosSpec& q = qos[static_cast<size_t>(i)];
      if (!q.Constrained()) continue;
      double ratio = now[static_cast<size_t>(i)] /
                     (q.degradation_limit * full_cost[static_cast<size_t>(i)]);
      if (ratio > worst) {
        worst = ratio;
        violator = i;
      }
    }
    if (violator < 0) break;

    const simvm::ResourceVector& rv =
        result.allocations[static_cast<size_t>(violator)];
    probes.clear();
    probe_moves.clear();
    for (int dim = 0; dim < dims; ++dim) {
      if (!options_.Allocates(dim)) continue;
      const double delta = options_.FinestDelta(dim);
      if (!CanRaise(rv, dim, delta)) continue;
      probes.push_back(TenantAllocation{violator, Raised(rv, dim, delta)});
      probe_moves.push_back(RestoreMove{dim, -1});
      for (int i = 0; i < n; ++i) {
        if (i == violator) continue;
        const simvm::ResourceVector& ri =
            result.allocations[static_cast<size_t>(i)];
        if (!CanLower(ri, dim, delta, options_.min_share)) continue;
        probes.push_back(TenantAllocation{i, Lowered(ri, dim, delta)});
        probe_moves.push_back(RestoreMove{dim, i});
      }
    }
    if (probes.empty()) break;  // no legal move; violations stand
    const std::vector<double> ests = estimator->EstimateMany(probes);

    // Best (dim, donor): the violator's largest gain against the donor's
    // smallest loss; the first candidate wins ties. probes[0] is a raise,
    // so best_cut == 0 means no donor qualified.
    size_t raise = 0, best_raise = 0, best_cut = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (size_t p = 0; p < probes.size(); ++p) {
      const int donor = probe_moves[p].donor;
      if (donor < 0) {
        raise = p;
        continue;
      }
      if (!satisfies_limit(donor, ests[p])) continue;
      const double gain = now[static_cast<size_t>(violator)] - ests[raise];
      const double loss = ests[p] - now[static_cast<size_t>(donor)];
      if (gain - loss > best_score) {
        best_score = gain - loss;
        best_raise = raise;
        best_cut = p;
      }
    }
    if (best_cut == 0) break;  // no legal move; violations stand
    const int best_dim = probe_moves[best_cut].dim;
    const int best_donor = probe_moves[best_cut].donor;
    const double delta = options_.FinestDelta(best_dim);
    simvm::ResourceVector& gain_r =
        result.allocations[static_cast<size_t>(violator)];
    simvm::ResourceVector& lose_r =
        result.allocations[static_cast<size_t>(best_donor)];
    gain_r = Raised(gain_r, best_dim, delta);
    lose_r = Lowered(lose_r, best_dim, delta);
    now[static_cast<size_t>(violator)] = ests[best_raise];
    now[static_cast<size_t>(best_donor)] = ests[best_cut];
    ++result.iterations;
  }

  // Shared finalization (costs / objective / QoS verdicts) so greedy can
  // never disagree with the other strategies about what they mean; the
  // full-machine reference probes replay from the warmup's cache entries.
  EnumerationResult finalized =
      FinalizeEnumeration(estimator, qos, std::move(result.allocations));
  finalized.iterations = result.iterations;
  finalized.converged = result.converged;
  return finalized;
}

}  // namespace vdba::advisor
