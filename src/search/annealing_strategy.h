// Simulated-annealing search over the allocation move graph.
//
// The cheap stochastic counterpoint to DpPruneStrategy for the ablation
// bench: where the DP pays for provable optimality with a table, annealing
// pays almost nothing and occasionally escapes the local optima that trap
// steepest-descent local search. Moves come from advisor::PairwiseFrontier,
// the move set advisor::LocalSearch climbs (lower one tenant, raise another,
// same dimension and finest delta step), the whole frontier is priced through
// one CostEstimator::EstimateMany fan-out per iteration, and all
// randomness comes from a fixed-seed vdba::Rng so repeated runs on the
// same inputs are bit-identical — the SearchStrategy determinism contract
// holds despite the stochastic acceptance rule.
#ifndef VDBA_SEARCH_ANNEALING_STRATEGY_H_
#define VDBA_SEARCH_ANNEALING_STRATEGY_H_

#include <string_view>
#include <utility>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "advisor/search_strategy.h"
#include "simvm/resource_vector.h"

namespace vdba::search {

/// \brief Batched simulated annealing (registry key "annealing").
///
/// Each iteration prices the full pairwise-transfer frontier in one
/// batched call, then either takes the steepest improving move (greedy
/// descent while descent is possible) or, when stuck at a local optimum,
/// accepts one uniformly-drawn uphill proposal with probability
/// exp(-delta / T) under a geometrically cooling temperature. The best
/// allocation ever visited — not the final random walk position — is what
/// Run() returns, so annealing can never finish worse than plain local
/// search from the same start. Iteration budget is
/// EnumeratorOptions::max_iterations; the walk also stops after
/// kStallLimit iterations without improving the best-seen objective or
/// when the temperature decays below the acceptance floor.
class AnnealingStrategy : public advisor::SearchStrategy {
 public:
  explicit AnnealingStrategy(advisor::EnumeratorOptions options)
      : options_(std::move(options)) {}

  advisor::EnumerationResult Run(
      advisor::CostEstimator* estimator,
      const std::vector<advisor::QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial) const override;
  std::string_view name() const override { return "annealing"; }

 private:
  advisor::EnumeratorOptions options_;
};

}  // namespace vdba::search

#endif  // VDBA_SEARCH_ANNEALING_STRATEGY_H_
