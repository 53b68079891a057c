// Local search over the allocation simplex, and the objectives it climbs.
//
// Multi-start hill climbing with the greedy enumerator's delta moves.
// Unlike the exact grid search (dp_prune, search/dp_prune_strategy.h), it
// moves from any starting allocation, on the share grid or off it, which
// is why the figures' "optimal" yardstick (§7.6-7.7) also climbs from the
// advisor's answer. Callers that want local search behind the pipeline's
// common interface should use LocalSearchStrategy (search_strategy.h),
// which wraps the free functions via EstimatorObjective.
#ifndef VDBA_ADVISOR_LOCAL_SEARCH_H_
#define VDBA_ADVISOR_LOCAL_SEARCH_H_

#include <functional>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "simvm/resource_vector.h"

namespace vdba::advisor {

/// Objective over a full allocation vector (total weighted cost; smaller is
/// better). May be backed by estimates or by actual measurements.
using AllocationObjective =
    std::function<double(const std::vector<simvm::ResourceVector>&)>;

/// Objective over MANY full allocation vectors at once; element k is the
/// objective of batch[k]. Lets local search hand a whole move frontier to
/// a parallel estimator (CostEstimator::EstimateMany) in one fan-out.
using BatchAllocationObjective = std::function<std::vector<double>(
    const std::vector<std::vector<simvm::ResourceVector>>&)>;

/// Adapts a scalar objective to the batched interface (sequential loop).
BatchAllocationObjective BatchedObjective(AllocationObjective f);

/// Batched objective backed by a cost estimator: every (candidate, tenant)
/// probe of the batch goes through one EstimateMany call, and candidate
/// objectives are the gain-weighted per-tenant sums. `qos` may be empty
/// (all gain factors 1).
BatchAllocationObjective EstimatorObjective(CostEstimator* estimator,
                                            std::vector<QosSpec> qos = {});

/// Best allocation found plus its objective value.
struct SearchResult {
  std::vector<simvm::ResourceVector> allocations;
  double objective = 0.0;
  long evaluations = 0;
};

/// Every feasible pairwise transfer at `current`: lower tenant `from` and
/// raise tenant `to` by the dimension's finest delta, for each allocated
/// dimension, in (dimension, from, to) order. The move set local search
/// and annealing share.
std::vector<std::vector<simvm::ResourceVector>> PairwiseFrontier(
    const std::vector<simvm::ResourceVector>& current,
    const EnumeratorOptions& options);

/// Multi-start hill climbing with single-delta moves (the same move set as
/// the greedy enumerator) from `starts`; returns the best local optimum.
/// Each pass evaluates the full PairwiseFrontier and applies the steepest
/// improving move. The scalar overload evaluates candidates one by one;
/// LocalSearchBatched hands each pass's frontier to `f` in one call (pair
/// it with EstimatorObjective for cross-tenant fan-out).
SearchResult LocalSearch(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const AllocationObjective& f, const EnumeratorOptions& options);

SearchResult LocalSearchBatched(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const BatchAllocationObjective& f, const EnumeratorOptions& options);

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_LOCAL_SEARCH_H_
