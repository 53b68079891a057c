#include "simdb/optimizer.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "simdb/selectivity.h"
#include "util/check.h"

namespace vdba::simdb {

namespace {

/// Join-graph probes: functions of the query alone, never of the
/// parameter vector.
bool HasCrossEdge(const QuerySpec& query, RelMask left, RelMask right) {
  for (const JoinPredicate& j : query.joins) {
    RelMask l = 1u << j.left_rel;
    RelMask r = 1u << j.right_rel;
    if (((l & left) && (r & right)) || ((l & right) && (r & left))) {
      return true;
    }
  }
  return false;
}

/// True when `outer_mask` relations connect to relation `inner_rel` via
/// >=1 edge; if so, returns combined per-probe selectivity and whether an
/// inner index is available for all connecting edges.
bool InnerJoinInfo(const Catalog& catalog, const QuerySpec& query,
                   const CardinalityModel& cards, RelMask outer_mask,
                   int inner_rel, double* per_probe_rows, bool* index_usable,
                   IndexId* index) {
  double sel = 1.0;
  bool connected = false;
  bool usable = true;
  IndexId idx = kInvalidIndex;
  const RelationRef& inner = query.relations[static_cast<size_t>(inner_rel)];
  for (const JoinPredicate& j : query.joins) {
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
    } else if (idx == kInvalidIndex) {
      idx = catalog.FindIndex(inner.table, index_col);
      if (idx == kInvalidIndex) usable = false;
    }
  }
  if (!connected) return false;
  *per_probe_rows = cards.BaseRows(inner_rel) * sel;
  *index_usable = usable && idx != kInvalidIndex;
  *index = idx;
  return true;
}

// ---------------------------------------------------------------------------
// Plan search: one enumeration for a whole batch of parameter vectors
// ---------------------------------------------------------------------------

/// Dynamic-programming join enumeration over connected subgraphs, run once
/// for every batch member that shares one MemoryContext. Each member keeps
/// its own best plan and cost per relation subset and chooses exactly as a
/// search run for it alone would: masks ascend, left sides descend over
/// proper submasks, candidates come in the order hash, merge, index nested
/// loop, nested loop; a candidate wins only when strictly cheaper (the
/// first wins ties), an index scan only when strictly cheaper than the seq
/// scan, and the hash aggregate wins ties on <=. tests/plan_search_oracle.h
/// is that single-vector search; optimize_grid_test holds every member to
/// it bit for bit. The batch shares work: each distinct candidate's
/// activity is walked once, and the BatchPricer prices every member from
/// that walk.
class PlanGridSearch {
 public:
  PlanGridSearch(const Catalog& catalog, const CostModel& model,
                 const QuerySpec& query, std::span<const EngineParams> params,
                 const MemoryContext& mem)
      : catalog_(catalog),
        query_(query),
        cards_(catalog, query),
        mem_(mem),
        arena_(std::make_shared<PlanArena>()),
        pricer_(model.MakeBatchPricer(params)),
        k_(params.size()),
        row_(params.size(), 0.0),
        row2_(params.size(), 0.0) {}

  std::vector<OptimizeResult> Run() {
    BuildJoinTree();
    AddAggregate();
    AddOrderBy();
    AddUpdate();
    AddResult();

    // Finalize once per distinct root: members that converged on the same
    // plan share its signature walk and activity.
    Distinct(roots_);
    std::vector<OptimizeResult> results(k_);
    for (size_t u = 0; u < uniq_.size(); ++u) {
      std::string signature;
      Activity act = ComputeActivity(catalog_, *uniq_[u], mem_, &signature);
      pricer_->Price(act, row_);
      for (size_t k = 0; k < k_; ++k) {
        if (which_[k] != u) continue;
        results[k].plan = AdoptPlan(arena_, uniq_[u]);
        results[k].native_cost = row_[k];
        results[k].signature = signature;
        results[k].activity = act;
      }
    }
    return results;
  }

 private:
  // --- candidate dedup scratch ---------------------------------------------

  /// Registers a candidate keyed by its (child, child) identity; builds
  /// and prices it only on first sight. Returns its scratch index.
  template <typename BuildFn>
  size_t FindOrAddCandidate(const PlanNode* a, const PlanNode* b,
                            BuildFn&& build) {
    for (size_t c = 0; c < cand_keys_.size(); ++c) {
      if (cand_keys_[c].first == a && cand_keys_[c].second == b) return c;
    }
    const PlanNode* node = build();
    cand_keys_.emplace_back(a, b);
    cand_nodes_.push_back(node);
    size_t base = cand_costs_.size();
    cand_costs_.resize(base + k_);
    Activity act = ComputeActivity(catalog_, *node, mem_, nullptr);
    pricer_->Price(act, std::span<double>(cand_costs_.data() + base, k_));
    return cand_keys_.size() - 1;
  }

  void ResetCandidates() {
    cand_keys_.clear();
    cand_nodes_.clear();
    cand_costs_.clear();
  }

  /// Offers `plan` at `cost` to the best-table cell `cell` (mask * k_ +
  /// member): the first candidate wins ties (strict <).
  void ConsiderOne(size_t cell, const PlanNode* plan, double cost) {
    if (best_plan_[cell] == nullptr || cost < best_cost_[cell]) {
      best_plan_[cell] = plan;
      best_cost_[cell] = cost;
    }
  }

  /// First-seen-order dedup of per-member plans into uniq_; which_[k]
  /// indexes uniq_.
  void Distinct(const std::vector<const PlanNode*>& items) {
    uniq_.clear();
    which_.assign(items.size(), 0);
    for (size_t k = 0; k < items.size(); ++k) {
      size_t u = 0;
      while (u < uniq_.size() && uniq_[u] != items[k]) ++u;
      if (u == uniq_.size()) uniq_.push_back(items[k]);
      which_[k] = u;
    }
  }

  // --- node builders -------------------------------------------------------

  const PlanNode* NewSort(const PlanNode* child) {
    PlanNode* node = arena_->New();
    node->op = PlanOp::kSort;
    node->output_rows = child->output_rows;
    node->output_width_bytes = child->output_width_bytes;
    node->left = child;
    return node;
  }

  /// Sort above member k's best plan for `mask`. Sort fields derive from
  /// the child alone, so members whose best plan is the same node share
  /// one Sort node, and with it the merge-join candidates built on it.
  /// Members ask in order, so every earlier member's Sort exists; the
  /// nearest one with the same plan is usually the previous member.
  const PlanNode* SortedBest(RelMask mask, size_t k) {
    const size_t base = mask * k_;
    const PlanNode*& sorted = best_sort_[base + k];
    if (sorted == nullptr) {
      const PlanNode* child = best_plan_[base + k];
      for (size_t j = k; j-- > 0 && sorted == nullptr;) {
        if (best_plan_[base + j] == child) sorted = best_sort_[base + j];
      }
      if (sorted == nullptr) sorted = NewSort(child);
    }
    return sorted;
  }

  PlanNode* NewScanNode(int rel_index) {
    const RelationRef& rel = query_.relations[static_cast<size_t>(rel_index)];
    PlanNode* node = arena_->New();
    node->table = rel.table;
    node->scan_selectivity = rel.filter_selectivity;
    node->num_predicates = rel.num_predicates;
    node->remote_fraction = rel.remote_fraction;
    node->output_rows = cards_.BaseRows(rel_index);
    node->output_width_bytes = cards_.RowWidth(1u << rel_index);
    node->op = PlanOp::kSeqScan;
    return node;
  }

  /// Force-seq inner scan for index-nested-loops: member-independent, so
  /// one node per relation serves the whole batch.
  const PlanNode* InnerScan(int rel_index) {
    const PlanNode*& slot = inner_scans_[static_cast<size_t>(rel_index)];
    if (slot == nullptr) slot = NewScanNode(rel_index);
    return slot;
  }

  /// Access-path selection for one relation: price seq vs index scan once,
  /// then per member the index scan wins only when strictly cheaper.
  void PlanScan(int rel_index) {
    const RelationRef& rel = query_.relations[static_cast<size_t>(rel_index)];
    const PlanNode* seq = NewScanNode(rel_index);
    Activity seq_act = ComputeActivity(catalog_, *seq, mem_, nullptr);
    pricer_->Price(seq_act, row_);
    const PlanNode* index_scan = nullptr;
    if (!rel.index_column.empty()) {
      IndexId idx = catalog_.FindIndex(rel.table, rel.index_column);
      if (idx != kInvalidIndex) {
        PlanNode* node = arena_->New(*seq);
        node->op = PlanOp::kIndexScan;
        node->index = idx;
        index_scan = node;
        Activity ix_act = ComputeActivity(catalog_, *node, mem_, nullptr);
        pricer_->Price(ix_act, row2_);
      }
    }
    const size_t base = (size_t{1} << rel_index) * k_;
    for (size_t k = 0; k < k_; ++k) {
      const bool use_index = index_scan != nullptr && row2_[k] < row_[k];
      best_plan_[base + k] = use_index ? index_scan : seq;
      best_cost_[base + k] = use_index ? row2_[k] : row_[k];
    }
  }

  void ConsiderJoin(RelMask mask, PlanOp op, RelMask left, RelMask right,
                    bool sort_inputs) {
    ResetCandidates();
    for (size_t k = 0; k < k_; ++k) {
      const PlanNode* l =
          sort_inputs ? SortedBest(left, k) : best_plan_[left * k_ + k];
      const PlanNode* r =
          sort_inputs ? SortedBest(right, k) : best_plan_[right * k_ + k];
      size_t c = FindOrAddCandidate(l, r, [&] {
        PlanNode* node = arena_->New();
        node->op = op;
        node->left = l;
        node->right = r;
        node->output_rows = cards_.SubsetRows(mask);
        node->output_width_bytes = cards_.RowWidth(mask);
        return node;
      });
      ConsiderOne(mask * k_ + k, cand_nodes_[c], cand_costs_[c * k_ + k]);
    }
  }

  void ConsiderIndexJoin(RelMask mask, RelMask left, int inner_rel,
                         double per_probe_rows, IndexId idx) {
    const PlanNode* inner = InnerScan(inner_rel);
    ResetCandidates();
    for (size_t k = 0; k < k_; ++k) {
      const PlanNode* l = best_plan_[left * k_ + k];
      size_t c = FindOrAddCandidate(l, inner, [&] {
        PlanNode* node = arena_->New();
        node->op = PlanOp::kIndexNestLoopJoin;
        node->left = l;
        node->right = inner;
        node->inner_rows_per_probe = per_probe_rows;
        node->inner_index = idx;
        node->output_rows = cards_.SubsetRows(mask);
        node->output_width_bytes = cards_.RowWidth(mask);
        return node;
      });
      ConsiderOne(mask * k_ + k, cand_nodes_[c], cand_costs_[c * k_ + k]);
    }
  }

  // --- enumeration stages ---------------------------------------------------

  /// Fills the best tables for every connected subset and leaves the full
  /// join's per-member plans in roots_.
  void BuildJoinTree() {
    const int n = cards_.num_relations();
    VDBA_CHECK_LE(n, kMaxRelations);
    const RelMask all = static_cast<RelMask>((1u << n) - 1u);
    best_plan_.assign((all + 1) * k_, nullptr);
    best_cost_.assign((all + 1) * k_, 0.0);
    best_sort_.assign((all + 1) * k_, nullptr);
    inner_scans_.assign(static_cast<size_t>(n), nullptr);

    for (int i = 0; i < n; ++i) PlanScan(i);

    // A subset has plans once its first member's cell is set: every
    // member's cell of a connected subset is filled (checked below).
    auto present = [&](RelMask m) { return best_plan_[m * k_] != nullptr; };
    for (RelMask mask = 1; mask <= all; ++mask) {
      if (std::popcount(mask) < 2) continue;
      if (!cards_.Connected(mask)) continue;
      for (RelMask left = (mask - 1) & mask; left != 0;
           left = (left - 1) & mask) {
        RelMask right = mask & ~left;
        if (right == 0) continue;
        if (!present(left) || !present(right)) continue;
        if (!HasCrossEdge(query_, left, right)) continue;

        ConsiderJoin(mask, PlanOp::kHashJoin, left, right,
                     /*sort_inputs=*/false);
        ConsiderJoin(mask, PlanOp::kMergeJoin, left, right,
                     /*sort_inputs=*/true);
        if (std::popcount(right) == 1) {
          int inner_rel = std::countr_zero(right);
          double per_probe = 0.0;
          bool index_usable = false;
          IndexId idx = kInvalidIndex;
          if (InnerJoinInfo(catalog_, query_, cards_, left, inner_rel,
                            &per_probe, &index_usable, &idx)) {
            if (index_usable) {
              ConsiderIndexJoin(mask, left, inner_rel, per_probe, idx);
            }
            ConsiderJoin(mask, PlanOp::kNestLoopJoin, left, right,
                         /*sort_inputs=*/false);
          }
        }
      }
      for (size_t k = 0; k < k_; ++k) {
        VDBA_CHECK_MSG(best_plan_[mask * k_ + k] != nullptr,
                       "no join candidate for connected mask (query %s)",
                       query_.name.c_str());
      }
    }
    VDBA_CHECK_MSG(present(all), "disconnected join graph in query %s",
                   query_.name.c_str());
    roots_.assign(best_plan_.begin() + all * k_,
                  best_plan_.begin() + (all + 1) * k_);
  }

  void AddAggregate() {
    const AggregateSpec& agg = query_.aggregate;
    if (agg.kind == AggregateKind::kNone) return;

    auto make_agg = [&](PlanOp op, double groups, const PlanNode* input) {
      PlanNode* node = arena_->New();
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

    Distinct(roots_);
    for (size_t u = 0; u < uniq_.size(); ++u) {
      const PlanNode* child = uniq_[u];
      double groups = agg.kind == AggregateKind::kScalar
                          ? 1.0
                          : std::min(agg.num_groups, child->output_rows);
      const PlanNode* hash_agg =
          make_agg(PlanOp::kHashAggregate, groups, child);
      const PlanNode* sort_agg = nullptr;
      if (agg.kind != AggregateKind::kScalar) {
        sort_agg = make_agg(PlanOp::kSortAggregate, groups, NewSort(child));
        pricer_->Price(ComputeActivity(catalog_, *hash_agg, mem_, nullptr),
                       row_);
        pricer_->Price(ComputeActivity(catalog_, *sort_agg, mem_, nullptr),
                       row2_);
      }
      for (size_t k = 0; k < k_; ++k) {
        if (which_[k] != u) continue;
        // The hash aggregate wins ties (<=).
        roots_[k] =
            sort_agg == nullptr || row_[k] <= row2_[k] ? hash_agg : sort_agg;
      }
    }
  }

  void AddOrderBy() {
    if (!query_.order_by.required) return;
    // Sorting already-sorted output of a SortAggregate is free in practice;
    // the optimizer still places the node (its cost is tiny for few rows).
    WrapRoots([&](const PlanNode* child) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kSort;
      node->output_rows = child->output_rows;
      node->output_width_bytes = query_.order_by.row_width;
      node->left = child;
      return node;
    });
  }

  void AddUpdate() {
    if (query_.update.rows_modified <= 0.0) return;
    WrapRoots([&](const PlanNode* child) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kUpdate;
      node->update = query_.update;
      node->output_rows = child->output_rows;
      node->output_width_bytes = child->output_width_bytes;
      node->left = child;
      return node;
    });
  }

  void AddResult() {
    WrapRoots([&](const PlanNode* child) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kResult;
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
    });
  }

  /// Replaces every root by wrap(root), building one wrapper per distinct
  /// root (wrappers have no per-member choice of their own).
  template <typename WrapFn>
  void WrapRoots(WrapFn&& wrap) {
    Distinct(roots_);
    for (const PlanNode*& u : uniq_) u = wrap(u);
    for (size_t k = 0; k < k_; ++k) roots_[k] = uniq_[which_[k]];
  }

  const Catalog& catalog_;
  const QuerySpec& query_;
  CardinalityModel cards_;
  MemoryContext mem_;
  std::shared_ptr<PlanArena> arena_;  ///< Shared with the returned plans.
  std::unique_ptr<BatchPricer> pricer_;
  size_t k_;                          ///< Batch members in this group.
  std::vector<double> row_;           ///< Pricing scratch (size k_).
  std::vector<double> row2_;

  /// Per-member DP tables, flat over (relation subset, member): cell
  /// mask * k_ + k holds member k's best plan and its cost for `mask`
  /// (nullptr while the subset has none), and the Sort above that plan
  /// once a merge join has asked for it (SortedBest).
  std::vector<const PlanNode*> best_plan_;
  std::vector<double> best_cost_;
  std::vector<const PlanNode*> best_sort_;
  /// Per-member plan of the stage being built (size k_).
  std::vector<const PlanNode*> roots_;
  /// Distinct-plan scratch shared by the stages: uniq_ in first-seen
  /// order, which_[k] = member k's index into uniq_.
  std::vector<const PlanNode*> uniq_;
  std::vector<size_t> which_;

  /// Per-relation force-seq inner scans (member-independent).
  std::vector<const PlanNode*> inner_scans_;

  /// Per-Consider* scratch: distinct candidates with per-member cost rows.
  std::vector<std::pair<const PlanNode*, const PlanNode*>> cand_keys_;
  std::vector<const PlanNode*> cand_nodes_;
  std::vector<double> cand_costs_;  ///< cand_costs_[c * k_ + k].
};

bool SameContext(const MemoryContext& a, const MemoryContext& b) {
  return a.work_mem_bytes == b.work_mem_bytes &&
         a.buffer_bytes == b.buffer_bytes &&
         a.modeled_sort_mem_cap_bytes == b.modeled_sort_mem_cap_bytes &&
         a.sort_mem_boost == b.sort_mem_boost;
}

}  // namespace

std::string QueryProblem(const Catalog& catalog, const QuerySpec& query) {
  auto problem = [&](const std::string& what) {
    return "query '" + query.name + "' " + what;
  };
  const size_t n = query.relations.size();
  if (n == 0) return problem("has no relation");
  if (n > static_cast<size_t>(kMaxRelations)) {
    return problem("joins " + std::to_string(n) + " relations, more than " +
                   std::to_string(kMaxRelations));
  }
  for (const RelationRef& rel : query.relations) {
    if (rel.table < 0 ||
        static_cast<size_t>(rel.table) >= catalog.num_tables()) {
      return problem("names table " + std::to_string(rel.table) +
                     ", outside the catalog's " +
                     std::to_string(catalog.num_tables()));
    }
  }
  for (const JoinPredicate& j : query.joins) {
    for (int rel : {j.left_rel, j.right_rel}) {
      if (rel < 0 || static_cast<size_t>(rel) >= n) {
        return problem("joins relation " + std::to_string(rel) +
                       ", outside its " + std::to_string(n));
      }
    }
  }
  if (!CardinalityModel(catalog, query).Connected((RelMask{1} << n) - 1)) {
    return problem("has a disconnected join graph");
  }
  return {};
}

OptimizeResult Optimizer::Optimize(const QuerySpec& query,
                                   const EngineParams& params) const {
  return std::move(OptimizeGrid(query, {&params, 1})[0]);
}

std::vector<OptimizeResult> Optimizer::OptimizeGrid(
    const QuerySpec& query, std::span<const EngineParams> params) const {
  if (params.empty()) return {};

  // Group members by estimation MemoryContext: the DP's spill/residency
  // decisions depend only on it, so members of a group share one
  // enumeration (and members differing only in cpu/io/net parameters all
  // land in the same group — the common what-if sweep shape).
  std::vector<MemoryContext> contexts;
  std::vector<size_t> group_of(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    VDBA_CHECK_EQ(static_cast<int>(ParamsFlavor(params[i])),
                  static_cast<int>(cost_model_.flavor()));
    MemoryContext mem = cost_model_.EstimationContext(params[i]);
    size_t g = 0;
    while (g < contexts.size() && !SameContext(contexts[g], mem)) ++g;
    if (g == contexts.size()) contexts.push_back(mem);
    group_of[i] = g;
  }
  // One group (always so for a single member): the batch is the group.
  if (contexts.size() == 1) {
    return PlanGridSearch(catalog_, cost_model_, query, params, contexts[0])
        .Run();
  }

  std::vector<OptimizeResult> results(params.size());
  std::vector<EngineParams> group_params;
  std::vector<size_t> members;
  for (size_t g = 0; g < contexts.size(); ++g) {
    group_params.clear();
    members.clear();
    for (size_t i = 0; i < params.size(); ++i) {
      if (group_of[i] != g) continue;
      group_params.push_back(params[i]);
      members.push_back(i);
    }
    std::vector<OptimizeResult> group_results =
        PlanGridSearch(catalog_, cost_model_, query, group_params,
                       contexts[g])
            .Run();
    for (size_t j = 0; j < members.size(); ++j) {
      results[members[j]] = std::move(group_results[j]);
    }
  }
  return results;
}

}  // namespace vdba::simdb
