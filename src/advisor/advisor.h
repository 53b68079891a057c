// VirtualizationDesignAdvisor: the paper's top-level tool (§4, Figure 3).
//
// Wires the calibrated what-if cost estimator to a pluggable search
// strategy (SearchSpec selects it; greedy by default) and returns an
// initial static recommendation. Online refinement (§5) and dynamic
// configuration management (§6) build on the advisor through
// refinement.h / dynamic_manager.h and re-enumerate through the same
// injected strategy.
#ifndef VDBA_ADVISOR_ADVISOR_H_
#define VDBA_ADVISOR_ADVISOR_H_

#include <memory>
#include <string>
#include <vector>

#include "advisor/cost_estimator.h"
#include "advisor/search_strategy.h"
#include "advisor/tenant.h"
#include "simvm/hardware.h"

namespace vdba::advisor {

/// Advisor configuration.
struct AdvisorOptions {
  /// Which search strategy enumerates configurations, and its move grid.
  SearchSpec search;
  WhatIfEstimatorOptions estimator;
};

/// A static recommendation.
struct Recommendation {
  std::vector<simvm::ResourceVector> allocations;
  /// Estimated per-tenant completion times at the recommendation.
  std::vector<double> estimated_seconds;
  /// Estimated objective (gain-weighted total seconds).
  double objective = 0.0;
  int iterations = 0;
  bool converged = false;
  std::vector<int> violated_qos;
  /// Estimated relative improvement over the default 1/N allocation,
  /// using estimated costs: (T_default - T_advisor) / T_default.
  double estimated_improvement = 0.0;
  /// Registry key of the strategy that produced the recommendation.
  std::string strategy;
};

/// The design advisor. Owns the estimator (and with it the tenant list);
/// does not own engines or calibration models.
class VirtualizationDesignAdvisor {
 public:
  VirtualizationDesignAdvisor(const simvm::PhysicalMachine& machine,
                              std::vector<Tenant> tenants,
                              AdvisorOptions options = AdvisorOptions());

  /// Initial static recommendation (§4): the configured search strategy
  /// enumerating over the calibrated what-if estimator.
  Recommendation Recommend();

  /// Recommendation seeded from `initial` (one allocation per tenant) —
  /// the warm-start entry incremental repair uses: the strategy explores
  /// out from the incumbent instead of the default 1/N split. Pass an
  /// empty vector for the cold behaviour of Recommend().
  Recommendation Recommend(std::vector<simvm::ResourceVector> initial);

  /// Estimated total seconds at an arbitrary allocation (for baselines):
  /// one EstimateMany over every tenant, summed in tenant order.
  double EstimateTotalSeconds(const std::vector<simvm::ResourceVector>& alloc);

  /// The strategy the options select (refinement and dynamic management
  /// re-enumerate through this, over their fitted-model estimators).
  std::unique_ptr<SearchStrategy> MakeStrategy() const {
    return MakeSearchStrategy(options_.search);
  }

  WhatIfCostEstimator* estimator() { return estimator_.get(); }
  const simvm::PhysicalMachine& machine() const { return machine_; }
  const AdvisorOptions& options() const { return options_; }
  int num_tenants() const { return estimator_->num_tenants(); }
  std::vector<QosSpec> QosList() const;

 private:
  simvm::PhysicalMachine machine_;
  AdvisorOptions options_;
  std::unique_ptr<WhatIfCostEstimator> estimator_;
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_ADVISOR_H_
