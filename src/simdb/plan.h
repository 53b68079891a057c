// Physical query plans and the activity walker.
//
// A PlanNode tree fixes *structural* decisions (join order, operator kinds,
// access paths). Memory-dependent details (hash-join batches, sort merge
// passes, buffer residency) are recomputed by ComputeActivity() for a given
// MemoryContext, because they are decided at run time by real engines and
// because the what-if estimator and the executor evaluate the same plan
// under different memory assumptions. The resulting Activity is converted
// to engine-native cost units by a CostModel, or to seconds by the Executor.
//
// Ownership: nodes live in a PlanArena (contiguous StructPool slabs) and
// point at children with plain pointers; a returned plan keeps its whole
// arena alive through one shared_ptr at the root (AdoptPlan), so readers —
// optimizer, executor, cost models — traverse raw pointers with no
// per-node reference counting. The optimizer's plans alias its search
// arena as is (every candidate node of the search included); nothing
// copies a winning tree out.
#ifndef VDBA_SIMDB_PLAN_H_
#define VDBA_SIMDB_PLAN_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "simdb/catalog.h"
#include "simdb/query.h"
#include "util/struct_pool.h"

namespace vdba::simdb {

/// Physical operator kinds.
enum class PlanOp {
  kSeqScan,
  kIndexScan,
  kNestLoopJoin,       ///< Materialized inner, no index.
  kIndexNestLoopJoin,  ///< Index lookups on the inner.
  kHashJoin,
  kMergeJoin,          ///< Children are Sort nodes (or sorted scans).
  kSort,
  kHashAggregate,
  kSortAggregate,      ///< Aggregation over sorted input (Sort child).
  kUpdate,
  kResult,             ///< Root: returns rows to the client.
};

const char* PlanOpName(PlanOp op);

struct PlanNode;

/// Owning handle to a plan root: a shared_ptr aliased onto the PlanArena
/// that owns every node of the tree (see AdoptPlan).
using PlanPtr = std::shared_ptr<const PlanNode>;

/// One node of a physical plan. Immutable once built (shared by the
/// optimizer's dynamic-programming memo). Children are non-owning: the
/// arena the node was allocated from owns them.
struct PlanNode {
  PlanOp op = PlanOp::kResult;
  const PlanNode* left = nullptr;   ///< Outer / only child.
  const PlanNode* right = nullptr;  ///< Inner child (joins only).

  // Scans.
  TableId table = kInvalidTable;
  IndexId index = kInvalidIndex;
  double scan_selectivity = 1.0;
  int num_predicates = 0;
  /// Fraction of this scan's page reads additionally shipped over the
  /// network (remote/replicated table; see RelationRef::remote_fraction).
  double remote_fraction = 0.0;

  // Index-nested-loop joins: matches per probe on the inner relation.
  double inner_rows_per_probe = 0.0;
  IndexId inner_index = kInvalidIndex;

  // Aggregation.
  double num_groups = 1.0;
  int num_aggregates = 1;
  double group_row_width = 48.0;
  double having_selectivity = 1.0;

  // Update.
  UpdateSpec update;

  // Result.
  double limit_rows = 0.0;
  double extra_ops_per_row = 0.0;
  /// Fraction of result rows shipped to a remote client (see
  /// QuerySpec::ship_fraction).
  double ship_fraction = 0.0;

  // Cardinality of this node's output.
  double output_rows = 0.0;
  double output_width_bytes = 48.0;
};

/// Arena owning PlanNodes in contiguous StructPool slabs.
class PlanArena {
 public:
  /// Default-constructed node, owned by this arena.
  PlanNode* New() { return pool_.New(); }
  /// Field-copy of `src` (children pointers included), owned by this arena.
  PlanNode* New(const PlanNode& src) { return pool_.New(src); }

  size_t size() const { return pool_.size(); }

 private:
  util::StructPool<PlanNode> pool_;
};

/// Owning root handle: keeps `arena` alive for as long as any copy of the
/// returned PlanPtr exists. `root` must be owned by `arena`.
PlanPtr AdoptPlan(std::shared_ptr<PlanArena> arena, const PlanNode* root);

/// Memory-dependent evaluation context for ComputeActivity().
struct MemoryContext {
  /// Memory available to each sort/hash operator, in bytes (PostgreSQL
  /// work_mem; DB2 sortheap).
  double work_mem_bytes = 5.0 * 1024 * 1024;
  /// Page-cache bytes (DBMS buffer pool + OS file cache, modeled jointly).
  double buffer_bytes = 128.0 * 1024 * 1024;
  /// Cap applied to work_mem when *modeling* sort/hash memory. The DB2
  /// cost model uses a finite cap, reproducing the paper's §7.9 finding
  /// that the optimizer underestimates the benefit of a larger sortheap.
  /// Infinity = model the full benefit (PostgreSQL model; ground truth).
  double modeled_sort_mem_cap_bytes = std::numeric_limits<double>::infinity();
  /// Multiplier on work_mem applied by the *executor* only: real engines
  /// (with memory-adaptive operators) extract more benefit from extra sort
  /// memory than the static model predicts.
  double sort_mem_boost = 1.0;
};

/// Physical activity of one plan execution: logical I/O and CPU event
/// counts, before conversion to native cost units or to seconds.
struct Activity {
  double seq_pages = 0.0;      ///< Sequential page reads (post cache).
  double rand_pages = 0.0;     ///< Random page reads (post cache).
  double spill_pages = 0.0;    ///< Sort/hash spill I/O (sequential).
  double write_pages = 0.0;    ///< Data/index page writes.
  double log_bytes = 0.0;      ///< WAL bytes (sequential write).
  double tuples = 0.0;         ///< Tuple-processing events.
  double op_evals = 0.0;       ///< Predicate/expression evaluations.
  double index_tuples = 0.0;   ///< Index-entry touches.
  double rows_returned = 0.0;  ///< Rows shipped to the client.
  double update_rows = 0.0;    ///< Rows modified.
  double net_pages = 0.0;      ///< 8 KB page-equivalents over the network.

  Activity& operator+=(const Activity& other);
};

/// Walks `plan`, computing its Activity under `mem` and the plan signature
/// (operator tags including spill states, e.g. "HJ(b=4)"). Signature changes
/// delimit the A_ij intervals of §5.1. `signature` may be nullptr — the
/// walk then skips all string assembly (the optimizer's costing hot path)
/// while producing bit-identical activity counts.
Activity ComputeActivity(const Catalog& catalog, const PlanNode& plan,
                         const MemoryContext& mem, std::string* signature);

/// Total bytes of tables and index structures referenced by the plan; this
/// is the working set used for buffer-residency discounts.
double PlanWorkingSetBytes(const Catalog& catalog, const PlanNode& plan);

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_PLAN_H_
