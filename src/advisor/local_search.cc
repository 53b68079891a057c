#include "advisor/local_search.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

BatchAllocationObjective BatchedObjective(AllocationObjective f) {
  return [f = std::move(f)](
             const std::vector<std::vector<simvm::ResourceVector>>& batch) {
    std::vector<double> out;
    out.reserve(batch.size());
    for (const auto& alloc : batch) out.push_back(f(alloc));
    return out;
  };
}

BatchAllocationObjective EstimatorObjective(CostEstimator* estimator,
                                            std::vector<QosSpec> qos) {
  VDBA_CHECK(estimator != nullptr);
  return [estimator, qos = std::move(qos)](
             const std::vector<std::vector<simvm::ResourceVector>>& batch) {
    std::vector<TenantAllocation> probes;
    size_t total = 0;
    for (const auto& alloc : batch) total += alloc.size();
    probes.reserve(total);
    for (const auto& alloc : batch) {
      for (size_t i = 0; i < alloc.size(); ++i) {
        probes.push_back(TenantAllocation{static_cast<int>(i), alloc[i]});
      }
    }
    std::vector<double> ests = estimator->EstimateMany(probes);
    std::vector<double> out;
    out.reserve(batch.size());
    size_t k = 0;
    for (const auto& alloc : batch) {
      double obj = 0.0;
      for (size_t i = 0; i < alloc.size(); ++i) {
        double gain = i < qos.size() ? qos[i].gain_factor : 1.0;
        obj += gain * ests[k++];
      }
      out.push_back(obj);
    }
    return out;
  };
}

std::vector<std::vector<simvm::ResourceVector>> PairwiseFrontier(
    const std::vector<simvm::ResourceVector>& current,
    const EnumeratorOptions& options) {
  const int n = static_cast<int>(current.size());
  const int dims = current.front().dims();
  std::vector<std::vector<simvm::ResourceVector>> frontier;
  for (int dim = 0; dim < dims; ++dim) {
    if (!options.Allocates(dim)) continue;
    const double delta = options.FinestDelta(dim);
    for (int from = 0; from < n; ++from) {
      if (!CanLower(current[static_cast<size_t>(from)], dim, delta,
                    options.min_share)) {
        continue;
      }
      for (int to = 0; to < n; ++to) {
        if (from == to) continue;
        if (!CanRaise(current[static_cast<size_t>(to)], dim, delta)) {
          continue;
        }
        std::vector<simvm::ResourceVector> candidate = current;
        candidate[static_cast<size_t>(from)] =
            Lowered(candidate[static_cast<size_t>(from)], dim, delta);
        candidate[static_cast<size_t>(to)] =
            Raised(candidate[static_cast<size_t>(to)], dim, delta);
        frontier.push_back(std::move(candidate));
      }
    }
  }
  return frontier;
}

SearchResult LocalSearch(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const AllocationObjective& f, const EnumeratorOptions& options) {
  return LocalSearchBatched(starts, BatchedObjective(f), options);
}

SearchResult LocalSearchBatched(
    const std::vector<std::vector<simvm::ResourceVector>>& starts,
    const BatchAllocationObjective& f, const EnumeratorOptions& options) {
  VDBA_CHECK(!starts.empty());
  SearchResult best;
  best.objective = std::numeric_limits<double>::infinity();

  for (const auto& start : starts) {
    std::vector<simvm::ResourceVector> current = start;
    VDBA_CHECK(!current.empty());
    double current_obj = f({current}).front();
    ++best.evaluations;
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < options.max_iterations) {
      improved = false;
      // Evaluate the whole move frontier in one batched call — a parallel
      // estimator fans it all out at once.
      std::vector<std::vector<simvm::ResourceVector>> frontier =
          PairwiseFrontier(current, options);
      if (frontier.empty()) break;
      std::vector<double> objs = f(frontier);
      best.evaluations += static_cast<long>(frontier.size());
      size_t steepest = 0;
      for (size_t c = 1; c < frontier.size(); ++c) {
        if (objs[c] < objs[steepest]) steepest = c;
      }
      if (objs[steepest] + 1e-12 < current_obj) {
        current_obj = objs[steepest];
        current = std::move(frontier[steepest]);
        improved = true;
      }
    }
    if (current_obj < best.objective) {
      best.objective = current_obj;
      best.allocations = current;
    }
  }
  return best;
}

}  // namespace vdba::advisor
