// Query optimizer for the simulated engines.
//
// Performs dynamic-programming join enumeration over connected subgraphs,
// access-path selection (seq vs index scan), physical join operator choice
// (hash / merge / nested-loop / index-nested-loop), and aggregation method
// choice (hash vs sort), all costed through the engine's CostModel under a
// caller-supplied parameter vector. Calling Optimize() with calibrated
// parameters for a hypothetical resource allocation is the paper's
// "what-if mode" (§4.1).
//
// There is one search, OptimizeGrid(): it runs the enumeration once per
// group of parameter vectors that share a memory context, keeping
// per-member best tables side by side (struct-of-arrays), walking each
// candidate plan's activity once, and pricing the whole batch through
// CostModel::MakeBatchPricer. Optimize() is a one-member OptimizeGrid().
// Every member's result is bit-identical to a scalar search run for its
// vector alone; tests/plan_search_oracle.h keeps that search as the test
// oracle.
#ifndef VDBA_SIMDB_OPTIMIZER_H_
#define VDBA_SIMDB_OPTIMIZER_H_

#include <span>
#include <string>
#include <vector>

#include "simdb/catalog.h"
#include "simdb/cost_model.h"
#include "simdb/plan.h"
#include "simdb/query.h"

namespace vdba::simdb {

/// Most relations one query may join: the join search keeps a table row
/// per subset of them.
inline constexpr int kMaxRelations = 12;

/// The first reason the optimizer cannot plan `query` over `catalog`, or
/// an empty string when it can: no relation, more than kMaxRelations, a
/// table outside the catalog, a join endpoint outside the query's
/// relations, or a join graph that leaves a relation unconnected. The
/// optimizer aborts on each of these, so callers that take queries from
/// outside the program check them first.
std::string QueryProblem(const Catalog& catalog, const QuerySpec& query);

/// Output of one optimizer call.
struct OptimizeResult {
  PlanPtr plan;
  /// Total plan cost in engine-native units (page-fetches / timerons).
  double native_cost = 0.0;
  /// Operator signature including spill states; changes in this string mark
  /// the plan-change boundaries that define the refinement intervals A_ij.
  std::string signature;
  /// Physical activity under the optimizer's estimation memory context.
  Activity activity;
};

/// Plan enumerator + coster. Stateless w.r.t. queries; one instance per
/// (catalog, cost model) pair.
class Optimizer {
 public:
  Optimizer(const Catalog& catalog, const CostModel& cost_model)
      : catalog_(catalog), cost_model_(cost_model) {}

  /// Optimizes `query` under `params` ("what-if" when params describe a
  /// hypothetical allocation): OptimizeGrid over the one vector.
  /// Deterministic. Batch probes instead where there are several: a call
  /// carries the grid search's fixed setup cost.
  OptimizeResult Optimize(const QuerySpec& query,
                          const EngineParams& params) const;

  /// Batched what-if: optimizes `query` under every parameter vector of
  /// `params` in one pass per memory-context group. The returned vector is
  /// index-aligned with `params`; each member's plan choice, native_cost,
  /// signature and activity are bit-identical to a search for that vector
  /// alone, whatever the rest of the batch holds. Plans of one group alias
  /// the group's search arena.
  std::vector<OptimizeResult> OptimizeGrid(
      const QuerySpec& query, std::span<const EngineParams> params) const;

  const Catalog& catalog() const { return catalog_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  const Catalog& catalog_;
  const CostModel& cost_model_;
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_OPTIMIZER_H_
