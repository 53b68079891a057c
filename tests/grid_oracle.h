// Brute-force grid search: the test oracle for the exact search strategies.
//
// Walks every allocation on the enumeration grid (step options.delta,
// shares >= options.min_share, each dimension's shares summing to <= 1)
// and returns the first strict minimum of the gain-weighted objective.
// dp_prune must reproduce this walk bit for bit, so the walk is spelled
// out the way the DP's equivalence argument reads it:
//  - share doubles come from repeated addition (v += delta), and a share
//    fits when v <= 1 - used - min_share * (remaining - 1) + 1e-9;
//  - dimension 0 is the outermost loop, tenant order within a dimension;
//  - pinned dimensions sit at 1/N, or at `initial`'s shares when given;
//  - the objective accumulates gain_i * EstimateSeconds(i, .) in tenant
//    order from 0.0;
//  - the first strictly smaller objective wins, and the winner goes
//    through FinalizeEnumeration like any strategy's.
// The walk is exponential in N x M with no size guard: callers keep N
// small.
#ifndef VDBA_TESTS_GRID_ORACLE_H_
#define VDBA_TESTS_GRID_ORACLE_H_

#include <limits>
#include <utility>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "advisor/search_strategy.h"
#include "simvm/resource_vector.h"
#include "util/check.h"

namespace vdba::oracle {

/// Appends to `out` every share vector that extends `prefix` to `n`
/// tenants on the grid.
inline void EnumerateGridShares(int n, double delta, double min_share,
                                std::vector<double>* prefix,
                                std::vector<std::vector<double>>* out) {
  if (static_cast<int>(prefix->size()) == n) {
    out->push_back(*prefix);
    return;
  }
  double used = 0.0;
  for (double v : *prefix) used += v;
  const int remaining = n - static_cast<int>(prefix->size());
  // Leave enough for the remaining tenants to reach min_share each.
  const double max_here = 1.0 - used - min_share * (remaining - 1);
  for (double v = min_share; v <= max_here + 1e-9; v += delta) {
    prefix->push_back(v);
    EnumerateGridShares(n, delta, min_share, prefix, out);
    prefix->pop_back();
  }
}

/// The grid argmin over `estimator`'s tenants and dimensions.
inline advisor::EnumerationResult GridArgmin(
    advisor::CostEstimator* estimator, const std::vector<advisor::QosSpec>& qos,
    const advisor::EnumeratorOptions& options,
    const std::vector<simvm::ResourceVector>& initial = {}) {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(qos.size(), static_cast<size_t>(n));
  if (!initial.empty()) VDBA_CHECK_EQ(initial.size(), static_cast<size_t>(n));

  // Share vectors per dimension: the grid for allocated dimensions, the
  // single pinned split otherwise.
  std::vector<std::vector<double>> grid;
  std::vector<double> prefix;
  EnumerateGridShares(n, options.delta, options.min_share, &prefix, &grid);
  VDBA_CHECK_MSG(!grid.empty(), "grid oracle: min_share leaves no grid");
  std::vector<std::vector<std::vector<double>>> per_dim;
  for (int d = 0; d < dims; ++d) {
    if (options.Allocates(d)) {
      per_dim.push_back(grid);
      continue;
    }
    std::vector<double> pinned(static_cast<size_t>(n), 1.0 / n);
    if (!initial.empty()) {
      for (int i = 0; i < n; ++i) {
        pinned[static_cast<size_t>(i)] =
            initial[static_cast<size_t>(i)].share(d);
      }
    }
    per_dim.push_back({std::move(pinned)});
  }

  // Odometer over the per-dimension choices, dimension 0 slowest.
  std::vector<size_t> pick(static_cast<size_t>(dims), 0);
  std::vector<simvm::ResourceVector> best;
  double best_obj = std::numeric_limits<double>::infinity();
  int evaluations = 0;
  for (;;) {
    std::vector<simvm::ResourceVector> alloc(
        static_cast<size_t>(n), simvm::ResourceVector::Uniform(dims, 1.0 / n));
    for (int d = 0; d < dims; ++d) {
      const std::vector<double>& shares =
          per_dim[static_cast<size_t>(d)][pick[static_cast<size_t>(d)]];
      for (int i = 0; i < n; ++i) {
        alloc[static_cast<size_t>(i)].set(d, shares[static_cast<size_t>(i)]);
      }
    }
    double obj = 0.0;
    for (int i = 0; i < n; ++i) {
      obj += qos[static_cast<size_t>(i)].gain_factor *
             estimator->EstimateSeconds(i, alloc[static_cast<size_t>(i)]);
    }
    ++evaluations;
    if (obj < best_obj) {
      best_obj = obj;
      best = std::move(alloc);
    }
    int d = dims - 1;
    while (d >= 0 && ++pick[static_cast<size_t>(d)] ==
                         per_dim[static_cast<size_t>(d)].size()) {
      pick[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  VDBA_CHECK_MSG(!best.empty(), "grid oracle: no feasible grid allocation");

  advisor::EnumerationResult result =
      advisor::FinalizeEnumeration(estimator, qos, std::move(best));
  result.iterations = evaluations;
  result.converged = true;
  return result;
}

}  // namespace vdba::oracle

#endif  // VDBA_TESTS_GRID_ORACLE_H_
