// Scalar plan search: the test oracle for Optimizer::Optimize and
// Optimizer::OptimizeGrid.
//
// One dynamic-programming join enumeration for ONE parameter vector,
// spelled out the way the batched search's equivalence argument reads it:
//  - relation subsets in ascending mask order, left sides as descending
//    proper submasks, candidates per split in the order hash join, merge
//    join (both inputs sorted), index nested loop (single-relation inner
//    with a usable index), plain nested loop;
//  - access paths: the index scan wins only when strictly cheaper;
//  - a candidate replaces a subset's best only when strictly cheaper (the
//    first candidate wins ties);
//  - the hash aggregate wins ties with the sort aggregate (<=);
//  - every candidate is priced through CostModel::NativeCost.
// The batched search must reproduce each member's plan choice, native
// cost, signature and activity bit for bit. The oracle keeps its own
// copies of the join-graph helpers so a change to the library's cannot
// move both sides at once. The returned plan aliases the search's own
// arena (no compaction).
#ifndef VDBA_TESTS_PLAN_SEARCH_ORACLE_H_
#define VDBA_TESTS_PLAN_SEARCH_ORACLE_H_

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simdb/catalog.h"
#include "simdb/cost_model.h"
#include "simdb/optimizer.h"
#include "simdb/plan.h"
#include "simdb/query.h"
#include "simdb/selectivity.h"
#include "util/check.h"

namespace vdba::oracle {

/// True when some join edge connects `left` and `right`.
inline bool OracleHasCrossEdge(const simdb::QuerySpec& query,
                               simdb::RelMask left, simdb::RelMask right) {
  for (const simdb::JoinPredicate& j : query.joins) {
    simdb::RelMask l = 1u << j.left_rel;
    simdb::RelMask r = 1u << j.right_rel;
    if (((l & left) && (r & right)) || ((l & right) && (r & left))) {
      return true;
    }
  }
  return false;
}

/// True when `outer_mask` connects to relation `inner_rel`; then returns
/// the per-probe rows and whether one inner index serves every edge.
inline bool OracleInnerJoinInfo(const simdb::Catalog& catalog,
                                const simdb::QuerySpec& query,
                                const simdb::CardinalityModel& cards,
                                simdb::RelMask outer_mask, int inner_rel,
                                double* per_probe_rows, bool* index_usable,
                                simdb::IndexId* index) {
  double sel = 1.0;
  bool connected = false;
  bool usable = true;
  simdb::IndexId idx = simdb::kInvalidIndex;
  const simdb::RelationRef& inner =
      query.relations[static_cast<size_t>(inner_rel)];
  for (const simdb::JoinPredicate& j : query.joins) {
    bool touches = false;
    std::string index_col;
    if (j.right_rel == inner_rel && (outer_mask & (1u << j.left_rel))) {
      touches = true;
      index_col = j.right_index_column;
    } else if (j.left_rel == inner_rel &&
               (outer_mask & (1u << j.right_rel))) {
      touches = true;  // reversed edge: no declared inner index
    }
    if (!touches) continue;
    connected = true;
    sel *= j.selectivity;
    if (index_col.empty()) {
      usable = false;
    } else if (idx == simdb::kInvalidIndex) {
      idx = catalog.FindIndex(inner.table, index_col);
      if (idx == simdb::kInvalidIndex) usable = false;
    }
  }
  if (!connected) return false;
  *per_probe_rows = cards.BaseRows(inner_rel) * sel;
  *index_usable = usable && idx != simdb::kInvalidIndex;
  *index = idx;
  return true;
}

/// The scalar DP for one parameter vector.
class PlanSearch {
 public:
  PlanSearch(const simdb::Catalog& catalog, const simdb::CostModel& model,
             const simdb::QuerySpec& query, const simdb::EngineParams& params)
      : catalog_(catalog),
        model_(model),
        query_(query),
        params_(params),
        cards_(catalog, query),
        mem_(model.EstimationContext(params)),
        arena_(std::make_shared<simdb::PlanArena>()) {}

  simdb::OptimizeResult Run() {
    const simdb::PlanNode* plan = BuildJoinTree();
    plan = AddAggregate(plan);
    plan = AddOrderBy(plan);
    plan = AddUpdate(plan);
    plan = AddResult(plan);

    simdb::OptimizeResult result;
    result.activity =
        simdb::ComputeActivity(catalog_, *plan, mem_, &result.signature);
    result.native_cost = model_.NativeCost(result.activity, params_);
    result.plan = simdb::AdoptPlan(arena_, plan);
    return result;
  }

 private:
  struct Candidate {
    const simdb::PlanNode* plan = nullptr;
    double cost = 0.0;
  };

  double CostOf(const simdb::PlanNode& plan) const {
    simdb::Activity act = simdb::ComputeActivity(catalog_, plan, mem_, nullptr);
    return model_.NativeCost(act, params_);
  }

  void Consider(Candidate* best, const simdb::PlanNode* plan) const {
    double cost = CostOf(*plan);
    if (best->plan == nullptr || cost < best->cost) {
      best->plan = plan;
      best->cost = cost;
    }
  }

  const simdb::PlanNode* MakeScan(int rel_index, bool force_seq) {
    const simdb::RelationRef& rel =
        query_.relations[static_cast<size_t>(rel_index)];
    simdb::PlanNode* node = arena_->New();
    node->table = rel.table;
    node->scan_selectivity = rel.filter_selectivity;
    node->num_predicates = rel.num_predicates;
    node->remote_fraction = rel.remote_fraction;
    node->output_rows = cards_.BaseRows(rel_index);
    node->output_width_bytes = cards_.RowWidth(1u << rel_index);
    node->op = simdb::PlanOp::kSeqScan;
    if (!force_seq && !rel.index_column.empty()) {
      simdb::IndexId idx = catalog_.FindIndex(rel.table, rel.index_column);
      if (idx != simdb::kInvalidIndex) {
        simdb::PlanNode* index_scan = arena_->New(*node);
        index_scan->op = simdb::PlanOp::kIndexScan;
        index_scan->index = idx;
        if (CostOf(*index_scan) < CostOf(*node)) return index_scan;
      }
    }
    return node;
  }

  const simdb::PlanNode* MakeJoin(simdb::PlanOp op,
                                  const simdb::PlanNode* left,
                                  const simdb::PlanNode* right,
                                  simdb::RelMask mask) {
    simdb::PlanNode* node = arena_->New();
    node->op = op;
    node->left = left;
    node->right = right;
    node->output_rows = cards_.SubsetRows(mask);
    node->output_width_bytes = cards_.RowWidth(mask);
    return node;
  }

  const simdb::PlanNode* MakeSort(const simdb::PlanNode* child) {
    simdb::PlanNode* node = arena_->New();
    node->op = simdb::PlanOp::kSort;
    node->output_rows = child->output_rows;
    node->output_width_bytes = child->output_width_bytes;
    node->left = child;
    return node;
  }

  const simdb::PlanNode* MakeJoinWithIndexInner(const simdb::PlanNode* outer,
                                                int inner_rel,
                                                double per_probe_rows,
                                                simdb::IndexId idx,
                                                simdb::RelMask mask) {
    const simdb::PlanNode* inner = MakeScan(inner_rel, /*force_seq=*/true);
    simdb::PlanNode* node = arena_->New();
    node->op = simdb::PlanOp::kIndexNestLoopJoin;
    node->left = outer;
    node->right = inner;
    node->inner_rows_per_probe = per_probe_rows;
    node->inner_index = idx;
    node->output_rows = cards_.SubsetRows(mask);
    node->output_width_bytes = cards_.RowWidth(mask);
    return node;
  }

  const simdb::PlanNode* BuildJoinTree() {
    const int n = cards_.num_relations();
    const simdb::RelMask all = static_cast<simdb::RelMask>((1u << n) - 1u);
    std::vector<Candidate> best(all + 1);

    for (int i = 0; i < n; ++i) {
      simdb::RelMask m = 1u << i;
      best[m].plan = MakeScan(i, /*force_seq=*/false);
      best[m].cost = CostOf(*best[m].plan);
    }
    if (n == 1) return best[1].plan;

    for (simdb::RelMask mask = 1; mask <= all; ++mask) {
      if (std::popcount(mask) < 2) continue;
      if (!cards_.Connected(mask)) continue;
      Candidate& entry = best[mask];
      for (simdb::RelMask left = (mask - 1) & mask; left != 0;
           left = (left - 1) & mask) {
        simdb::RelMask right = mask & ~left;
        if (right == 0) continue;
        if (!best[left].plan || !best[right].plan) continue;
        if (!OracleHasCrossEdge(query_, left, right)) continue;

        Consider(&entry, MakeJoin(simdb::PlanOp::kHashJoin, best[left].plan,
                                  best[right].plan, mask));
        Consider(&entry, MakeJoin(simdb::PlanOp::kMergeJoin,
                                  MakeSort(best[left].plan),
                                  MakeSort(best[right].plan), mask));
        if (std::popcount(right) == 1) {
          int inner_rel = std::countr_zero(right);
          double per_probe = 0.0;
          bool index_usable = false;
          simdb::IndexId idx = simdb::kInvalidIndex;
          if (OracleInnerJoinInfo(catalog_, query_, cards_, left, inner_rel,
                                  &per_probe, &index_usable, &idx)) {
            if (index_usable) {
              Consider(&entry, MakeJoinWithIndexInner(best[left].plan,
                                                      inner_rel, per_probe,
                                                      idx, mask));
            }
            Consider(&entry,
                     MakeJoin(simdb::PlanOp::kNestLoopJoin, best[left].plan,
                              best[right].plan, mask));
          }
        }
      }
      VDBA_CHECK(entry.plan != nullptr);
    }
    VDBA_CHECK(best[all].plan != nullptr);
    return best[all].plan;
  }

  const simdb::PlanNode* AddAggregate(const simdb::PlanNode* child) {
    const simdb::AggregateSpec& agg = query_.aggregate;
    if (agg.kind == simdb::AggregateKind::kNone) return child;

    double groups = agg.kind == simdb::AggregateKind::kScalar
                        ? 1.0
                        : std::min(agg.num_groups, child->output_rows);
    auto make_agg = [&](simdb::PlanOp op, const simdb::PlanNode* input) {
      simdb::PlanNode* node = arena_->New();
      node->op = op;
      node->num_groups = groups < 1.0 ? 1.0 : groups;
      node->num_aggregates = agg.num_aggregates;
      node->group_row_width = agg.group_row_width;
      node->having_selectivity = agg.having_selectivity;
      node->output_rows = cards_.RowsAfterAggregate();
      node->output_width_bytes = agg.group_row_width;
      node->left = input;
      return node;
    };

    const simdb::PlanNode* hash_agg =
        make_agg(simdb::PlanOp::kHashAggregate, child);
    if (agg.kind == simdb::AggregateKind::kScalar) return hash_agg;
    const simdb::PlanNode* sort_agg =
        make_agg(simdb::PlanOp::kSortAggregate, MakeSort(child));
    return CostOf(*hash_agg) <= CostOf(*sort_agg) ? hash_agg : sort_agg;
  }

  const simdb::PlanNode* AddOrderBy(const simdb::PlanNode* child) {
    if (!query_.order_by.required) return child;
    simdb::PlanNode* node = arena_->New();
    node->op = simdb::PlanOp::kSort;
    node->output_rows = child->output_rows;
    node->output_width_bytes = query_.order_by.row_width;
    node->left = child;
    return node;
  }

  const simdb::PlanNode* AddUpdate(const simdb::PlanNode* child) {
    if (query_.update.rows_modified <= 0.0) return child;
    simdb::PlanNode* node = arena_->New();
    node->op = simdb::PlanOp::kUpdate;
    node->update = query_.update;
    node->output_rows = child->output_rows;
    node->output_width_bytes = child->output_width_bytes;
    node->left = child;
    return node;
  }

  const simdb::PlanNode* AddResult(const simdb::PlanNode* child) {
    simdb::PlanNode* node = arena_->New();
    node->op = simdb::PlanOp::kResult;
    node->limit_rows = query_.limit_rows;
    double rows = child->output_rows;
    if (query_.limit_rows > 0.0 && rows > query_.limit_rows) {
      rows = query_.limit_rows;
    }
    node->output_rows = rows;
    node->output_width_bytes = child->output_width_bytes;
    node->extra_ops_per_row = query_.extra_ops_per_row;
    node->ship_fraction = query_.ship_fraction;
    node->left = child;
    return node;
  }

  const simdb::Catalog& catalog_;
  const simdb::CostModel& model_;
  const simdb::QuerySpec& query_;
  const simdb::EngineParams& params_;
  simdb::CardinalityModel cards_;
  simdb::MemoryContext mem_;
  std::shared_ptr<simdb::PlanArena> arena_;  ///< Every candidate node.
};

/// Optimizes `query` under `params` with the scalar DP.
inline simdb::OptimizeResult ScalarOptimize(const simdb::Catalog& catalog,
                                            const simdb::CostModel& model,
                                            const simdb::QuerySpec& query,
                                            const simdb::EngineParams& params) {
  return PlanSearch(catalog, model, query, params).Run();
}

}  // namespace vdba::oracle

#endif  // VDBA_TESTS_PLAN_SEARCH_ORACLE_H_
