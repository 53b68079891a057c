#include "simdb/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simdb/selectivity.h"
#include "util/check.h"

namespace vdba::simdb {

namespace {

constexpr int kMaxRelations = 12;

/// Join-graph probes shared by the scalar and grid searches; both are
/// functions of the query alone, never of the parameter vector.
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
// Scalar search (the reference implementation; also the per-call path)
// ---------------------------------------------------------------------------

struct Candidate {
  const PlanNode* plan = nullptr;
  double cost = 0.0;
};

/// DP state and helpers for one Optimize() call. All candidate nodes live
/// in a per-call arena; the winning tree is cloned into a compact arena the
/// returned PlanPtr keeps alive.
class PlanSearch {
 public:
  PlanSearch(const Catalog& catalog, const CostModel& model,
             const QuerySpec& query, const EngineParams& params)
      : catalog_(catalog),
        model_(model),
        query_(query),
        params_(params),
        cards_(catalog, query),
        mem_(model.EstimationContext(params)) {}

  OptimizeResult Run() {
    const PlanNode* plan = BuildJoinTree();
    plan = AddAggregate(plan);
    plan = AddOrderBy(plan);
    plan = AddUpdate(plan);
    plan = AddResult(plan);

    // The DP memo dies with this search; the winner moves to a compact
    // arena sized exactly to the tree.
    auto owner = std::make_shared<PlanArena>();
    const PlanNode* root = ClonePlan(*plan, owner.get());
    OptimizeResult result;
    result.activity = ComputeActivity(catalog_, *root, mem_, &result.signature);
    result.native_cost = model_.NativeCost(result.activity, params_);
    result.plan = AdoptPlan(std::move(owner), root);
    return result;
  }

 private:
  double CostOf(const PlanNode& plan) const {
    Activity act = ComputeActivity(catalog_, plan, mem_, nullptr);
    return model_.NativeCost(act, params_);
  }

  void Consider(Candidate* best, const PlanNode* plan) const {
    double cost = CostOf(*plan);
    if (best->plan == nullptr || cost < best->cost) {
      best->plan = plan;
      best->cost = cost;
    }
  }

  const PlanNode* MakeScan(int rel_index, bool force_seq) {
    const RelationRef& rel = query_.relations[static_cast<size_t>(rel_index)];
    PlanNode* node = arena_.New();
    node->table = rel.table;
    node->scan_selectivity = rel.filter_selectivity;
    node->num_predicates = rel.num_predicates;
    node->remote_fraction = rel.remote_fraction;
    node->output_rows = cards_.BaseRows(rel_index);
    node->output_width_bytes = cards_.RowWidth(1u << rel_index);
    node->op = PlanOp::kSeqScan;
    if (!force_seq && !rel.index_column.empty()) {
      IndexId idx = catalog_.FindIndex(rel.table, rel.index_column);
      if (idx != kInvalidIndex) {
        PlanNode* index_scan = arena_.New(*node);
        index_scan->op = PlanOp::kIndexScan;
        index_scan->index = idx;
        // Pick the cheaper access path.
        if (CostOf(*index_scan) < CostOf(*node)) return index_scan;
      }
    }
    return node;
  }

  /// Joined-output node shared by all physical join candidates.
  const PlanNode* MakeJoin(PlanOp op, const PlanNode* left,
                           const PlanNode* right, RelMask mask) {
    PlanNode* node = arena_.New();
    node->op = op;
    node->left = left;
    node->right = right;
    node->output_rows = cards_.SubsetRows(mask);
    node->output_width_bytes = cards_.RowWidth(mask);
    return node;
  }

  const PlanNode* MakeSort(const PlanNode* child) {
    PlanNode* node = arena_.New();
    node->op = PlanOp::kSort;
    node->output_rows = child->output_rows;
    node->output_width_bytes = child->output_width_bytes;
    node->left = child;
    return node;
  }

  const PlanNode* BuildJoinTree() {
    const int n = cards_.num_relations();
    VDBA_CHECK_LE(n, kMaxRelations);
    const RelMask all = static_cast<RelMask>((1u << n) - 1u);
    std::vector<Candidate> best(all + 1);

    for (int i = 0; i < n; ++i) {
      RelMask m = 1u << i;
      best[m].plan = MakeScan(i, /*force_seq=*/false);
      best[m].cost = CostOf(*best[m].plan);
    }
    if (n == 1) return best[1].plan;

    for (RelMask mask = 1; mask <= all; ++mask) {
      if (std::popcount(mask) < 2) continue;
      if (!cards_.Connected(mask)) continue;
      Candidate& entry = best[mask];
      // Enumerate proper subsets (left side); right side = complement.
      for (RelMask left = (mask - 1) & mask; left != 0;
           left = (left - 1) & mask) {
        RelMask right = mask & ~left;
        if (right == 0) continue;
        if (!best[left].plan || !best[right].plan) continue;
        if (!HasCrossEdge(query_, left, right)) continue;

        // Hash join: build on the right subtree.
        Consider(&entry, MakeJoin(PlanOp::kHashJoin, best[left].plan,
                                  best[right].plan, mask));
        // Merge join: sort both inputs.
        Consider(&entry,
                 MakeJoin(PlanOp::kMergeJoin, MakeSort(best[left].plan),
                          MakeSort(best[right].plan), mask));
        // Index nested-loop: right side must be a single relation with a
        // usable index on the join column(s).
        if (std::popcount(right) == 1) {
          int inner_rel = std::countr_zero(right);
          double per_probe = 0.0;
          bool index_usable = false;
          IndexId idx = kInvalidIndex;
          if (InnerJoinInfo(catalog_, query_, cards_, left, inner_rel,
                            &per_probe, &index_usable, &idx)) {
            if (index_usable) {
              Consider(&entry, MakeJoinWithIndexInner(best[left].plan,
                                                      inner_rel, per_probe,
                                                      idx, mask));
            }
            // Plain nested loop with a materialized inner (attractive only
            // for tiny inners such as nation/region).
            Consider(&entry, MakeJoin(PlanOp::kNestLoopJoin, best[left].plan,
                                      best[right].plan, mask));
          }
        }
      }
      VDBA_CHECK_MSG(entry.plan != nullptr,
                     "no join candidate for connected mask (query %s)",
                     query_.name.c_str());
    }
    VDBA_CHECK_MSG(best[all].plan != nullptr,
                   "disconnected join graph in query %s", query_.name.c_str());
    return best[all].plan;
  }

  const PlanNode* MakeJoinWithIndexInner(const PlanNode* outer, int inner_rel,
                                         double per_probe_rows, IndexId idx,
                                         RelMask mask) {
    // The inner child carries relation metadata but is not scanned
    // standalone (the walker special-cases kIndexNestLoopJoin).
    const PlanNode* inner = MakeScan(inner_rel, /*force_seq=*/true);
    PlanNode* node = arena_.New();
    node->op = PlanOp::kIndexNestLoopJoin;
    node->left = outer;
    node->right = inner;
    node->inner_rows_per_probe = per_probe_rows;
    node->inner_index = idx;
    node->output_rows = cards_.SubsetRows(mask);
    node->output_width_bytes = cards_.RowWidth(mask);
    return node;
  }

  const PlanNode* AddAggregate(const PlanNode* child) {
    const AggregateSpec& agg = query_.aggregate;
    if (agg.kind == AggregateKind::kNone) return child;

    double groups = agg.kind == AggregateKind::kScalar
                        ? 1.0
                        : std::min(agg.num_groups, child->output_rows);
    auto make_agg = [&](PlanOp op, const PlanNode* input) {
      PlanNode* node = arena_.New();
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

    const PlanNode* hash_agg = make_agg(PlanOp::kHashAggregate, child);
    if (agg.kind == AggregateKind::kScalar) return hash_agg;
    const PlanNode* sort_agg =
        make_agg(PlanOp::kSortAggregate, MakeSort(child));
    return CostOf(*hash_agg) <= CostOf(*sort_agg) ? hash_agg : sort_agg;
  }

  const PlanNode* AddOrderBy(const PlanNode* child) {
    if (!query_.order_by.required) return child;
    // Sorting already-sorted output of a SortAggregate is free in practice;
    // the optimizer still places the node (its cost is tiny for few rows).
    PlanNode* node = arena_.New();
    node->op = PlanOp::kSort;
    node->output_rows = child->output_rows;
    node->output_width_bytes = query_.order_by.row_width;
    node->left = child;
    return node;
  }

  const PlanNode* AddUpdate(const PlanNode* child) {
    if (query_.update.rows_modified <= 0.0) return child;
    PlanNode* node = arena_.New();
    node->op = PlanOp::kUpdate;
    node->update = query_.update;
    node->output_rows = child->output_rows;
    node->output_width_bytes = child->output_width_bytes;
    node->left = child;
    return node;
  }

  const PlanNode* AddResult(const PlanNode* child) {
    PlanNode* node = arena_.New();
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
  }

  const Catalog& catalog_;
  const CostModel& model_;
  const QuerySpec& query_;
  const EngineParams& params_;
  CardinalityModel cards_;
  MemoryContext mem_;
  PlanArena arena_;  ///< Owns every candidate node of this search.
};

// ---------------------------------------------------------------------------
// Grid search: one enumeration, a whole batch of parameter vectors
// ---------------------------------------------------------------------------

/// Per-member DP entry: best plan + best cost per batch member, side by
/// side (struct-of-arrays over the batch).
struct GridEntry {
  std::vector<const PlanNode*> plan;
  std::vector<double> cost;

  bool Present() const { return !plan.empty(); }
  void Init(size_t k) {
    plan.assign(k, nullptr);
    cost.assign(k, 0.0);
  }
};

/// Joint DP over every batch member sharing one MemoryContext. The mask /
/// split / candidate-generation order replicates PlanSearch exactly per
/// member (same strict-< and <= tie-breaks), so each member's plan choice,
/// cost, signature, and activity are bit-identical to its scalar run. The
/// speedup comes from walking each distinct candidate's activity once:
/// members agreeing on a candidate's children share the walk, and the
/// BatchPricer prices all members from that single walk.
class PlanGridSearch {
 public:
  PlanGridSearch(const Catalog& catalog, const CostModel& model,
                 const QuerySpec& query, std::span<const EngineParams> params,
                 const MemoryContext& mem)
      : catalog_(catalog),
        model_(model),
        query_(query),
        cards_(catalog, query),
        mem_(mem),
        arena_(std::make_shared<PlanArena>()),
        pricer_(model.MakeBatchPricer(params)),
        k_(params.size()),
        row_(params.size(), 0.0),
        row2_(params.size(), 0.0) {}

  std::vector<OptimizeResult> Run() {
    GridEntry joined = BuildJoinTree();
    std::vector<const PlanNode*> roots = std::move(joined.plan);
    AddAggregate(&roots);
    AddOrderBy(&roots);
    AddUpdate(&roots);
    AddResult(&roots);

    // Finalize once per distinct root: members that converged on the same
    // plan share its signature walk and activity.
    std::vector<const PlanNode*> uniq;
    std::vector<size_t> which;
    Distinct(roots, &uniq, &which);
    std::vector<OptimizeResult> results(k_);
    for (size_t u = 0; u < uniq.size(); ++u) {
      std::string signature;
      Activity act = ComputeActivity(catalog_, *uniq[u], mem_, &signature);
      pricer_->Price(act, row_);
      for (size_t k = 0; k < k_; ++k) {
        if (which[k] != u) continue;
        results[k].plan = AdoptPlan(arena_, uniq[u]);
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

  static void ConsiderOne(GridEntry* entry, size_t k, const PlanNode* plan,
                          double cost) {
    // Mirrors PlanSearch::Consider: first candidate wins ties (strict <).
    if (entry->plan[k] == nullptr || cost < entry->cost[k]) {
      entry->plan[k] = plan;
      entry->cost[k] = cost;
    }
  }

  /// First-seen-order dedup of per-member plans; which[k] indexes uniq.
  static void Distinct(const std::vector<const PlanNode*>& items,
                       std::vector<const PlanNode*>* uniq,
                       std::vector<size_t>* which) {
    uniq->clear();
    which->assign(items.size(), 0);
    for (size_t k = 0; k < items.size(); ++k) {
      size_t u = 0;
      while (u < uniq->size() && (*uniq)[u] != items[k]) ++u;
      if (u == uniq->size()) uniq->push_back(items[k]);
      (*which)[k] = u;
    }
  }

  // --- node builders (field-for-field mirrors of PlanSearch) ---------------

  const PlanNode* SortOf(const PlanNode* child) {
    auto [it, inserted] = sort_memo_.try_emplace(child, nullptr);
    if (inserted) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kSort;
      node->output_rows = child->output_rows;
      node->output_width_bytes = child->output_width_bytes;
      node->left = child;
      it->second = node;
    }
    return it->second;
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
  /// choose per member on strict < exactly like PlanSearch::MakeScan.
  GridEntry ScanEntry(int rel_index) {
    GridEntry entry;
    entry.Init(k_);
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
    for (size_t k = 0; k < k_; ++k) {
      if (index_scan != nullptr && row2_[k] < row_[k]) {
        entry.plan[k] = index_scan;
        entry.cost[k] = row2_[k];
      } else {
        entry.plan[k] = seq;
        entry.cost[k] = row_[k];
      }
    }
    return entry;
  }

  void ConsiderJoin(GridEntry* entry, PlanOp op, const GridEntry& lefts,
                    const GridEntry& rights, RelMask mask, bool sort_inputs) {
    ResetCandidates();
    for (size_t k = 0; k < k_; ++k) {
      const PlanNode* l = lefts.plan[k];
      const PlanNode* r = rights.plan[k];
      if (sort_inputs) {
        l = SortOf(l);
        r = SortOf(r);
      }
      size_t c = FindOrAddCandidate(l, r, [&] {
        PlanNode* node = arena_->New();
        node->op = op;
        node->left = l;
        node->right = r;
        node->output_rows = cards_.SubsetRows(mask);
        node->output_width_bytes = cards_.RowWidth(mask);
        return node;
      });
      ConsiderOne(entry, k, cand_nodes_[c], cand_costs_[c * k_ + k]);
    }
  }

  void ConsiderIndexJoin(GridEntry* entry, const GridEntry& lefts,
                         int inner_rel, double per_probe_rows, IndexId idx,
                         RelMask mask) {
    const PlanNode* inner = InnerScan(inner_rel);
    ResetCandidates();
    for (size_t k = 0; k < k_; ++k) {
      const PlanNode* l = lefts.plan[k];
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
      ConsiderOne(entry, k, cand_nodes_[c], cand_costs_[c * k_ + k]);
    }
  }

  // --- enumeration stages ---------------------------------------------------

  GridEntry BuildJoinTree() {
    const int n = cards_.num_relations();
    VDBA_CHECK_LE(n, kMaxRelations);
    const RelMask all = static_cast<RelMask>((1u << n) - 1u);
    std::vector<GridEntry> best(all + 1);
    inner_scans_.assign(static_cast<size_t>(n), nullptr);

    for (int i = 0; i < n; ++i) {
      best[1u << i] = ScanEntry(i);
    }
    if (n == 1) return std::move(best[1]);

    for (RelMask mask = 1; mask <= all; ++mask) {
      if (std::popcount(mask) < 2) continue;
      if (!cards_.Connected(mask)) continue;
      GridEntry& entry = best[mask];
      entry.Init(k_);
      for (RelMask left = (mask - 1) & mask; left != 0;
           left = (left - 1) & mask) {
        RelMask right = mask & ~left;
        if (right == 0) continue;
        if (!best[left].Present() || !best[right].Present()) continue;
        if (!HasCrossEdge(query_, left, right)) continue;

        ConsiderJoin(&entry, PlanOp::kHashJoin, best[left], best[right], mask,
                     /*sort_inputs=*/false);
        ConsiderJoin(&entry, PlanOp::kMergeJoin, best[left], best[right],
                     mask, /*sort_inputs=*/true);
        if (std::popcount(right) == 1) {
          int inner_rel = std::countr_zero(right);
          double per_probe = 0.0;
          bool index_usable = false;
          IndexId idx = kInvalidIndex;
          if (InnerJoinInfo(catalog_, query_, cards_, left, inner_rel,
                            &per_probe, &index_usable, &idx)) {
            if (index_usable) {
              ConsiderIndexJoin(&entry, best[left], inner_rel, per_probe, idx,
                                mask);
            }
            ConsiderJoin(&entry, PlanOp::kNestLoopJoin, best[left],
                         best[right], mask, /*sort_inputs=*/false);
          }
        }
      }
      for (size_t k = 0; k < k_; ++k) {
        VDBA_CHECK_MSG(entry.plan[k] != nullptr,
                       "no join candidate for connected mask (query %s)",
                       query_.name.c_str());
      }
    }
    VDBA_CHECK(best[all].Present());
    return std::move(best[all]);
  }

  void AddAggregate(std::vector<const PlanNode*>* roots) {
    const AggregateSpec& agg = query_.aggregate;
    if (agg.kind == AggregateKind::kNone) return;

    std::vector<const PlanNode*> uniq;
    std::vector<size_t> which;
    Distinct(*roots, &uniq, &which);

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

    std::vector<const PlanNode*> hash_nodes(uniq.size());
    std::vector<const PlanNode*> sort_nodes(uniq.size(), nullptr);
    std::vector<double> hash_costs(uniq.size() * k_, 0.0);
    std::vector<double> sort_costs(uniq.size() * k_, 0.0);
    for (size_t u = 0; u < uniq.size(); ++u) {
      const PlanNode* child = uniq[u];
      double groups = agg.kind == AggregateKind::kScalar
                          ? 1.0
                          : std::min(agg.num_groups, child->output_rows);
      hash_nodes[u] = make_agg(PlanOp::kHashAggregate, groups, child);
      if (agg.kind == AggregateKind::kScalar) continue;
      sort_nodes[u] =
          make_agg(PlanOp::kSortAggregate, groups, SortOf(child));
      Activity hash_act =
          ComputeActivity(catalog_, *hash_nodes[u], mem_, nullptr);
      pricer_->Price(hash_act,
                     std::span<double>(hash_costs.data() + u * k_, k_));
      Activity sort_act =
          ComputeActivity(catalog_, *sort_nodes[u], mem_, nullptr);
      pricer_->Price(sort_act,
                     std::span<double>(sort_costs.data() + u * k_, k_));
    }
    for (size_t k = 0; k < k_; ++k) {
      size_t u = which[k];
      if (agg.kind == AggregateKind::kScalar) {
        (*roots)[k] = hash_nodes[u];
      } else {
        // PlanSearch::AddAggregate keeps the hash aggregate on <=.
        (*roots)[k] = hash_costs[u * k_ + k] <= sort_costs[u * k_ + k]
                          ? hash_nodes[u]
                          : sort_nodes[u];
      }
    }
  }

  void AddOrderBy(std::vector<const PlanNode*>* roots) {
    if (!query_.order_by.required) return;
    ForEachDistinctChild(roots, [&](const PlanNode* child) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kSort;
      node->output_rows = child->output_rows;
      node->output_width_bytes = query_.order_by.row_width;
      node->left = child;
      return node;
    });
  }

  void AddUpdate(std::vector<const PlanNode*>* roots) {
    if (query_.update.rows_modified <= 0.0) return;
    ForEachDistinctChild(roots, [&](const PlanNode* child) {
      PlanNode* node = arena_->New();
      node->op = PlanOp::kUpdate;
      node->update = query_.update;
      node->output_rows = child->output_rows;
      node->output_width_bytes = child->output_width_bytes;
      node->left = child;
      return node;
    });
  }

  void AddResult(std::vector<const PlanNode*>* roots) {
    ForEachDistinctChild(roots, [&](const PlanNode* child) {
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

  /// Replaces every root by wrap(child), building one wrapper per distinct
  /// child (wrappers have no per-member choice of their own).
  template <typename WrapFn>
  void ForEachDistinctChild(std::vector<const PlanNode*>* roots,
                            WrapFn&& wrap) {
    std::vector<const PlanNode*> uniq;
    std::vector<size_t> which;
    Distinct(*roots, &uniq, &which);
    std::vector<const PlanNode*> wrapped(uniq.size());
    for (size_t u = 0; u < uniq.size(); ++u) wrapped[u] = wrap(uniq[u]);
    for (size_t k = 0; k < roots->size(); ++k) {
      (*roots)[k] = wrapped[which[k]];
    }
  }

  const Catalog& catalog_;
  const CostModel& model_;
  const QuerySpec& query_;
  CardinalityModel cards_;
  MemoryContext mem_;
  std::shared_ptr<PlanArena> arena_;  ///< Shared with the returned plans.
  std::unique_ptr<BatchPricer> pricer_;
  size_t k_;                          ///< Batch members in this group.
  std::vector<double> row_;           ///< Pricing scratch (size k_).
  std::vector<double> row2_;

  /// Sort-above-child memo: Sort fields derive from the child alone, so
  /// one node serves every split / member that sorts the same subplan.
  std::unordered_map<const PlanNode*, const PlanNode*> sort_memo_;
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

OptimizeResult Optimizer::Optimize(const QuerySpec& query,
                                   const EngineParams& params) const {
  VDBA_CHECK_EQ(static_cast<int>(ParamsFlavor(params)),
                static_cast<int>(cost_model_.flavor()));
  PlanSearch search(catalog_, cost_model_, query, params);
  return search.Run();
}

std::vector<OptimizeResult> Optimizer::OptimizeGrid(
    const QuerySpec& query, std::span<const EngineParams> params) const {
  std::vector<OptimizeResult> results(params.size());
  if (params.empty()) return results;

  // Group members by estimation MemoryContext: the DP's spill/residency
  // decisions depend only on it, so members of a group share one
  // enumeration (and members differing only in cpu/io/net parameters all
  // land in the same group — the common what-if sweep shape).
  std::vector<MemoryContext> contexts;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < params.size(); ++i) {
    VDBA_CHECK_EQ(static_cast<int>(ParamsFlavor(params[i])),
                  static_cast<int>(cost_model_.flavor()));
    MemoryContext mem = cost_model_.EstimationContext(params[i]);
    size_t g = 0;
    while (g < contexts.size() && !SameContext(contexts[g], mem)) ++g;
    if (g == contexts.size()) {
      contexts.push_back(mem);
      groups.emplace_back();
    }
    groups[g].push_back(i);
  }

  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<EngineParams> group_params;
    group_params.reserve(groups[g].size());
    for (size_t i : groups[g]) group_params.push_back(params[i]);
    PlanGridSearch search(catalog_, cost_model_, query, group_params,
                          contexts[g]);
    std::vector<OptimizeResult> group_results = search.Run();
    for (size_t j = 0; j < groups[g].size(); ++j) {
      results[groups[g][j]] = std::move(group_results[j]);
    }
  }
  return results;
}

}  // namespace vdba::simdb
