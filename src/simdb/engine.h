// DbEngine: one simulated DBMS installation (catalog + optimizer + cost
// model + true-execution profile).
//
// The advisor talks to engines through two doors:
//   * WhatIfOptimize(query, params) — the paper's what-if mode (§4.1):
//     cost a query under a hypothetical parameter vector without running
//     anything. WhatIfOptimizeGrid prices a batch of vectors in one
//     search; WhatIfOptimize is its one-member case.
//   * ExecuteQuery(query, env, vm_memory_mb) — ground truth: the plan the
//     engine would really pick inside a VM with those resources, timed on
//     the simulated hardware (including the unmodeled costs).
#ifndef VDBA_SIMDB_ENGINE_H_
#define VDBA_SIMDB_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simdb/catalog.h"
#include "simdb/cost_model.h"
#include "simdb/executor.h"
#include "simdb/optimizer.h"
#include "simdb/query.h"

namespace vdba::simdb {

/// A simulated DBMS instance.
class DbEngine {
 public:
  /// Creates an engine of the given flavor over `catalog`. The default
  /// ExecutionProfile suits that flavor (DB2 gets sort_mem_boost > 1,
  /// reproducing §7.9's sortheap underestimation).
  DbEngine(std::string name, EngineFlavor flavor, Catalog catalog);
  DbEngine(std::string name, EngineFlavor flavor, Catalog catalog,
           ExecutionProfile profile);

  DbEngine(const DbEngine&) = delete;
  DbEngine& operator=(const DbEngine&) = delete;

  const std::string& name() const { return name_; }
  EngineFlavor flavor() const { return flavor_; }
  const Catalog& catalog() const { return catalog_; }
  const CostModel& cost_model() const { return *cost_model_; }
  const ExecutionProfile& profile() const { return executor_.profile(); }

  /// What-if optimizer call: plan + native-unit cost under `params` (a
  /// one-member WhatIfOptimizeGrid).
  OptimizeResult WhatIfOptimize(const QuerySpec& query,
                                const EngineParams& params) const;

  /// Batched what-if: one enumeration pass per memory-context group prices
  /// every vector of `params`. Bit-identical to per-vector WhatIfOptimize,
  /// and cheaper per vector: prefer it whenever probes come in batches.
  std::vector<OptimizeResult> WhatIfOptimizeGrid(
      const QuerySpec& query, std::span<const EngineParams> params) const;

  /// Parameter vector the engine actually runs with inside a VM:
  /// descriptive parameters reflecting true hardware rates under `env`
  /// (a self-aware engine), prescriptive parameters per the §7.1 memory
  /// policy for `vm_memory_mb`.
  EngineParams ActualParams(const RuntimeEnv& env, double vm_memory_mb) const;

  /// Default parameter vector for this flavor (pre-calibration values).
  EngineParams DefaultParams() const;

  /// Ground truth: optimizes under ActualParams and times the chosen plan.
  ExecutionBreakdown ExecuteQuery(const QuerySpec& query,
                                  const RuntimeEnv& env,
                                  double vm_memory_mb) const;

 private:
  static ExecutionProfile DefaultProfile(EngineFlavor flavor);

  std::string name_;
  EngineFlavor flavor_;
  Catalog catalog_;
  std::unique_ptr<CostModel> cost_model_;
  Optimizer optimizer_;
  Executor executor_;
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_ENGINE_H_
