// Pluggable configuration-search strategies (§4, Figure 3).
//
// The paper treats configuration enumeration as a swappable component of
// the advisor: greedy search (Figure 11) is the practical instance, with
// exhaustive enumeration as the quality yardstick (§4.5, Figure 24).
// Here the yardstick is dp_prune, which returns the exact grid optimum at
// any N, and local search is the hill-climbing counterpoint. SearchStrategy
// is the one interface every pipeline stage — VirtualizationDesignAdvisor,
// OnlineRefinement, DynamicConfigurationManager — enumerates through, and
// MakeSearchStrategy is the string-keyed factory that turns a SearchSpec
// into a strategy, so comparing greedy vs dp_prune vs greedy+refine is a
// one-line configuration change. Every strategy consumes the batched
// CostEstimator interface (EstimateMany / EstimatorObjective), so the
// cross-tenant fan-out applies regardless of the search policy.
#ifndef VDBA_ADVISOR_SEARCH_STRATEGY_H_
#define VDBA_ADVISOR_SEARCH_STRATEGY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "simvm/resource_vector.h"

namespace vdba::advisor {

/// Result of one enumeration run (shared by every strategy).
struct EnumerationResult {
  std::vector<simvm::ResourceVector> allocations;
  /// Objective value: sum_i G_i * Cost(W_i, R_i), in estimated seconds.
  double objective = 0.0;
  /// Unweighted per-tenant estimated costs at the final allocation.
  std::vector<double> tenant_costs;
  /// Greedy: move iterations. Local search and annealing: objective
  /// evaluations. dp_prune: DP expansions. Clamped to int.
  int iterations = 0;
  bool converged = false;
  /// Tenants whose degradation limit could not be satisfied (best-effort
  /// allocation still returned).
  std::vector<int> violated_qos;
};

/// Selects and parameterizes a search strategy. The strategy key is a
/// plain string so benches/configs can sweep policies without code
/// changes; MakeSearchStrategy resolves it against the registry.
struct SearchSpec {
  /// Registered keys: "greedy" (default, Figure 11), "local_search"
  /// (steepest-descent hill climbing), "greedy_refine" (greedy then a
  /// batched local-search polish), "dp_prune" (dominance-pruned DP over
  /// tenant prefixes — the exact grid optimum at any N; src/search/),
  /// "annealing" (batched simulated annealing; src/search/).
  std::string strategy = "greedy";
  /// Move grid shared by every strategy (delta steps, min_share, pinned
  /// dimensions, delta schedules).
  EnumeratorOptions enumerator;
};

/// \brief Abstract configuration search: policy over the estimation
/// mechanism.
///
/// A strategy owns *how* the allocation space is explored; everything
/// else — what an estimate costs, how many dimensions exist, what the
/// objective and a QoS violation mean — comes from the CostEstimator and
/// the shared FinalizeEnumeration helper. Implementations must be
/// stateless across Run() calls (one instance may serve many runs) and
/// deterministic: identical (estimator state, qos, initial) inputs yield
/// identical results. Route every estimate through
/// CostEstimator::EstimateMany / EstimateBatch (or EstimatorObjective) so
/// parallel estimators can fan probes out; never call EstimateSeconds in
/// a loop.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// \brief Runs the search.
  /// \param estimator Cost oracle; also fixes the tenant count and the
  ///   dimensionality M of the search space (estimator->num_dims()).
  /// \param qos `qos[i]` applies to tenant i; must have one entry per
  ///   tenant.
  /// \param initial Starting allocation; pass empty for the default 1/N
  ///   equal split. Dimensions the options pin keep their `initial`
  ///   shares.
  /// \returns Allocations (one per tenant, each with num_dims()
  ///   dimensions), the gain-weighted objective, per-tenant costs, and
  ///   the QoS verdicts — see EnumerationResult.
  virtual EnumerationResult Run(
      CostEstimator* estimator, const std::vector<QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial) const = 0;

  /// Registry key of this strategy (what MakeSearchStrategy resolves).
  virtual std::string_view name() const = 0;
};

/// Steepest-descent local search (LocalSearchBatched) from the caller's
/// starting point, with each pass's move frontier evaluated in one
/// EstimateMany fan-out via EstimatorObjective.
class LocalSearchStrategy : public SearchStrategy {
 public:
  explicit LocalSearchStrategy(EnumeratorOptions options)
      : options_(std::move(options)) {}

  EnumerationResult Run(
      CostEstimator* estimator, const std::vector<QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial) const override;
  std::string_view name() const override { return "local_search"; }

 private:
  EnumeratorOptions options_;
};

/// Greedy search followed by a batched local-search polish from the greedy
/// optimum — the composition the API exists for. Falls back to the plain
/// greedy result when the polish would violate a degradation limit the
/// greedy result satisfies.
class GreedyRefineStrategy : public SearchStrategy {
 public:
  explicit GreedyRefineStrategy(EnumeratorOptions options)
      : options_(std::move(options)) {}

  EnumerationResult Run(
      CostEstimator* estimator, const std::vector<QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial) const override;
  std::string_view name() const override { return "greedy_refine"; }

 private:
  EnumeratorOptions options_;
};

/// Shared result finalization every strategy (greedy included) ends with:
/// per-tenant costs at `allocations`, the gain-weighted objective, and
/// degradation-limit verdicts against the full-machine reference costs —
/// probed in one cross-tenant EstimateMany fan-out. One implementation so
/// the strategies can never disagree about what the objective or a QoS
/// violation means. Leaves iterations/converged at their defaults.
EnumerationResult FinalizeEnumeration(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<simvm::ResourceVector> allocations);

/// Builds the strategy `spec.strategy` names. Aborts (VDBA_CHECK) on an
/// unregistered key, listing the known ones.
std::unique_ptr<SearchStrategy> MakeSearchStrategy(const SearchSpec& spec);

/// Keys MakeSearchStrategy accepts, in registry order.
std::vector<std::string> RegisteredSearchStrategies();

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_SEARCH_STRATEGY_H_
