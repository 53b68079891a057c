// Cost-model interface: converts plan Activity into engine-native cost
// units under a given parameter vector, and defines how parameters map to
// the memory context used when costing plans.
#ifndef VDBA_SIMDB_COST_MODEL_H_
#define VDBA_SIMDB_COST_MODEL_H_

#include <memory>
#include <span>
#include <vector>

#include "simdb/cost_params.h"
#include "simdb/plan.h"
#include "simdb/types.h"

namespace vdba::simdb {

/// Prices one Activity for every member of a fixed parameter batch.
///
/// Built once per probe batch (MakeBatchPricer extracts the priced
/// parameters into struct-of-arrays form) and then invoked in the
/// optimizer's innermost loop: one plan walk, one Price() call, a whole
/// batch of costs. Contract: out[k] is bit-identical to
/// NativeCost(activity, params[k]) for the params the pricer was built
/// over.
class BatchPricer {
 public:
  virtual ~BatchPricer() = default;

  /// Fills out[k] with the native cost of `activity` under batch member k.
  /// `out` must have exactly the batch's size.
  virtual void Price(const Activity& activity,
                     std::span<double> out) const = 0;
};

/// Abstract query-optimizer cost model (one per engine flavor).
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual EngineFlavor flavor() const = 0;

  /// Cost of `activity` in engine-native units (sequential page fetches for
  /// PostgreSQL, timerons for DB2) under parameter vector `params`.
  virtual double NativeCost(const Activity& activity,
                            const EngineParams& params) const = 0;

  /// Struct-of-arrays batch pricer over `params` (copied into the pricer):
  /// vectorized inner loops that hoist the parameter-independent activity
  /// sums.
  virtual std::unique_ptr<BatchPricer> MakeBatchPricer(
      std::span<const EngineParams> params) const = 0;

  /// Memory context the optimizer assumes when costing plans under
  /// `params` (buffer size, per-operator work memory, and any modeling cap
  /// or discount on sort memory).
  virtual MemoryContext EstimationContext(const EngineParams& params) const = 0;

  /// Memory context of the engine actually executing under `params`: the
  /// full prescriptive knob values with no modeling discounts. Defaults to
  /// the estimation context (accurate models).
  virtual MemoryContext ExecutionContext(const EngineParams& params) const {
    return EstimationContext(params);
  }
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_COST_MODEL_H_
