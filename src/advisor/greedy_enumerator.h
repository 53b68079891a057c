// Greedy configuration enumeration (paper §4.5, Figure 11) — the default
// SearchStrategy.
//
// Starts from equal 1/N shares and repeatedly shifts a delta share of one
// resource from the workload that suffers least to the workload that gains
// most, subject to per-workload degradation limits; gain factors G_i weight
// the gains/losses. Terminates when no beneficial move exists. The move
// loop is dimension-generic and cross-tenant batched: each iteration
// materializes the full (tenant, dimension, +/-delta) move frontier via
// MoveFrontier and evaluates it in ONE CostEstimator::EstimateMany call,
// so a parallel estimator fans every tenant's probes out at once instead
// of tenant-by-tenant. Per-dimension delta schedules (EnumeratorOptions::
// deltas) anneal the step size coarse-to-fine once the coarse frontier has
// no improving move. Feasibility restoration, which afterwards pushes
// share toward tenants still over their QoS limit, batches the same way:
// each round reads the current costs in one EstimateMany and prices its
// candidate moves in one more. Run never calls EstimateSeconds.
#ifndef VDBA_ADVISOR_GREEDY_ENUMERATOR_H_
#define VDBA_ADVISOR_GREEDY_ENUMERATOR_H_

#include <string_view>
#include <utility>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "advisor/search_strategy.h"
#include "simvm/resource_vector.h"

namespace vdba::advisor {

/// Figure-11 greedy search.
class GreedyEnumerator : public SearchStrategy {
 public:
  explicit GreedyEnumerator(EnumeratorOptions options = EnumeratorOptions())
      : options_(std::move(options)) {}

  /// Runs the search. `qos[i]` applies to tenant i; `initial` overrides the
  /// default equal-shares starting point (pass empty for 1/N).
  EnumerationResult Run(
      CostEstimator* estimator, const std::vector<QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial = {}) const override;

  std::string_view name() const override { return "greedy"; }

  const EnumeratorOptions& options() const { return options_; }

 private:
  EnumeratorOptions options_;
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_GREEDY_ENUMERATOR_H_
