#include "advisor/search_strategy.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "advisor/greedy_enumerator.h"
#include "advisor/local_search.h"
#include "search/annealing_strategy.h"
#include "search/dp_prune_strategy.h"
#include "util/check.h"

namespace vdba::advisor {

namespace {

int ClampToInt(long v) {
  return static_cast<int>(
      std::min<long>(v, std::numeric_limits<int>::max()));
}

}  // namespace

EnumerationResult FinalizeEnumeration(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<simvm::ResourceVector> allocations) {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(allocations.size(), static_cast<size_t>(n));

  EnumerationResult result;
  for (simvm::ResourceVector& r : allocations) r = r.Expanded(dims);
  result.allocations = std::move(allocations);

  std::vector<TenantAllocation> probes;
  probes.reserve(static_cast<size_t>(2 * n));
  for (int i = 0; i < n; ++i) {
    probes.push_back(
        TenantAllocation{i, result.allocations[static_cast<size_t>(i)]});
  }
  for (int i = 0; i < n; ++i) {
    probes.push_back(TenantAllocation{i, simvm::ResourceVector::Full(dims)});
  }
  std::vector<double> costs = estimator->EstimateMany(probes);

  result.tenant_costs.assign(costs.begin(), costs.begin() + n);
  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    result.objective += qos[si].gain_factor * costs[si];
    if (qos[si].Constrained() &&
        costs[si] >
            qos[si].degradation_limit * costs[static_cast<size_t>(n + i)]) {
      result.violated_qos.push_back(i);
    }
  }
  return result;
}

namespace {

using StrategyFactory =
    std::function<std::unique_ptr<SearchStrategy>(const SearchSpec&)>;

/// Registry keyed by strategy name (ordered, so listings are stable).
const std::map<std::string, StrategyFactory>& Registry() {
  static const auto* registry = new std::map<std::string, StrategyFactory>{
      {"greedy",
       [](const SearchSpec& spec) {
         return std::make_unique<GreedyEnumerator>(spec.enumerator);
       }},
      {"local_search",
       [](const SearchSpec& spec) {
         return std::make_unique<LocalSearchStrategy>(spec.enumerator);
       }},
      {"greedy_refine",
       [](const SearchSpec& spec) {
         return std::make_unique<GreedyRefineStrategy>(spec.enumerator);
       }},
      {"dp_prune",
       [](const SearchSpec& spec) {
         return std::make_unique<search::DpPruneStrategy>(spec.enumerator);
       }},
      {"annealing",
       [](const SearchSpec& spec) {
         return std::make_unique<search::AnnealingStrategy>(spec.enumerator);
       }},
  };
  return *registry;
}

}  // namespace

EnumerationResult LocalSearchStrategy::Run(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<simvm::ResourceVector> initial) const {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(qos.size(), static_cast<size_t>(n));

  std::vector<simvm::ResourceVector> start =
      initial.empty() ? DefaultAllocation(n, dims) : std::move(initial);
  for (simvm::ResourceVector& r : start) r = r.Expanded(dims);

  SearchResult best = LocalSearchBatched(
      {std::move(start)}, EstimatorObjective(estimator, qos), options_);

  EnumerationResult result =
      FinalizeEnumeration(estimator, qos, std::move(best.allocations));
  result.iterations = ClampToInt(best.evaluations);
  result.converged = true;
  return result;
}

EnumerationResult GreedyRefineStrategy::Run(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<simvm::ResourceVector> initial) const {
  GreedyEnumerator greedy(options_);
  EnumerationResult greedy_result =
      greedy.Run(estimator, qos, std::move(initial));

  SearchResult polished = LocalSearchBatched(
      {greedy_result.allocations}, EstimatorObjective(estimator, qos),
      options_);

  EnumerationResult result =
      FinalizeEnumeration(estimator, qos, std::move(polished.allocations));
  // Local search optimizes the unconstrained objective; never trade a
  // QoS-clean greedy result for a violating polish, nor accept a polish
  // that did not actually improve.
  bool new_violations =
      greedy_result.violated_qos.empty() && !result.violated_qos.empty();
  if (new_violations || result.objective > greedy_result.objective) {
    greedy_result.iterations =
        ClampToInt(greedy_result.iterations + polished.evaluations);
    return greedy_result;
  }
  result.iterations =
      ClampToInt(greedy_result.iterations + polished.evaluations);
  result.converged = greedy_result.converged;
  return result;
}

std::unique_ptr<SearchStrategy> MakeSearchStrategy(const SearchSpec& spec) {
  auto it = Registry().find(spec.strategy);
  if (it == Registry().end()) {
    std::string known;
    for (const auto& [key, factory] : Registry()) {
      (void)factory;
      if (!known.empty()) known += ", ";
      known += key;
    }
    VDBA_CHECK_MSG(false, "unknown search strategy '%s' (registered: %s)",
                   spec.strategy.c_str(), known.c_str());
  }
  return it->second(spec);
}

std::vector<std::string> RegisteredSearchStrategies() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [key, factory] : Registry()) {
    (void)factory;
    names.push_back(key);
  }
  return names;
}

}  // namespace vdba::advisor
