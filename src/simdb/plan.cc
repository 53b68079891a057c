#include "simdb/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace vdba::simdb {

namespace {

constexpr double kHashBuildOverhead = 1.1;
constexpr double kHashTableOverhead = 1.5;

double Log2Rows(double rows) { return std::log2(rows < 2.0 ? 2.0 : rows); }

double PagesOf(double bytes) {
  double p = bytes / kPageSizeBytes;
  return p < 1.0 ? 1.0 : p;
}

/// Effective sort/hash memory used when deciding spills.
double EffectiveWorkMem(const MemoryContext& mem) {
  double m = mem.work_mem_bytes * mem.sort_mem_boost;
  if (m > mem.modeled_sort_mem_cap_bytes) m = mem.modeled_sort_mem_cap_bytes;
  return m < kPageSizeBytes ? kPageSizeBytes : m;
}

/// Placeholder "signature" for signature-free walks: every string operation
/// compiles away, leaving only the activity arithmetic. Sharing one walker
/// body between the two modes is what guarantees the costing walk (the
/// optimizer's inner loop) is bit-identical to the signature-producing one.
struct NullSig {};

/// One templated walker serves both modes; kSignature selects whether the
/// operator-tag strings are assembled at all.
template <bool kSignature>
class ActivityWalker {
 public:
  using Sig = std::conditional_t<kSignature, std::string, NullSig>;

  ActivityWalker(const Catalog& catalog, const MemoryContext& mem,
                 double working_set_bytes)
      : catalog_(catalog), mem_(mem) {
    // Fraction of "cold" page reads that still miss the (warm) cache: with a
    // buffer pool larger than the working set every re-execution is fully
    // cached; below that, misses shrink linearly.
    double resident = working_set_bytes <= 0.0
                          ? 1.0
                          : mem.buffer_bytes / working_set_bytes;
    if (resident > 1.0) resident = 1.0;
    if (resident < 0.0) resident = 0.0;
    cold_miss_ = 1.0 - resident;
    // Even a fully-resident working set incurs a little I/O (metadata,
    // eviction churn); keeps cost curves smooth and strictly positive.
    if (cold_miss_ < 0.02) cold_miss_ = 0.02;
  }

  Sig Walk(const PlanNode& node, Activity* act) {
    switch (node.op) {
      case PlanOp::kSeqScan: return SeqScan(node, act);
      case PlanOp::kIndexScan: return IndexScan(node, act);
      case PlanOp::kNestLoopJoin: return NestLoop(node, act);
      case PlanOp::kIndexNestLoopJoin: return IndexNestLoop(node, act);
      case PlanOp::kHashJoin: return HashJoin(node, act);
      case PlanOp::kMergeJoin: return MergeJoin(node, act);
      case PlanOp::kSort: return Sort(node, act);
      case PlanOp::kHashAggregate: return HashAgg(node, act);
      case PlanOp::kSortAggregate: return SortAgg(node, act);
      case PlanOp::kUpdate: return Update(node, act);
      case PlanOp::kResult: return Result(node, act);
    }
    VDBA_CHECK_MSG(false, "unreachable plan op");
    return Sig{};
  }

 private:
  /// Miss fraction for repeated accesses to one structure of `bytes` size.
  double HotMiss(double bytes) const {
    if (bytes <= 0.0) return 0.0;
    double resident = mem_.buffer_bytes / bytes;
    if (resident > 1.0) resident = 1.0;
    double miss = 1.0 - resident;
    return miss < 0.0 ? 0.0 : miss;
  }

  /// Miss fraction for scattered index probes. Uniformly random probes are
  /// LRU-hostile: partial residency helps far less than it does for
  /// sequential re-reads (superlinear rather than linear benefit). This is
  /// what keeps the paper's Q17-style workloads insensitive to memory
  /// until the structure nearly fits (§1, Fig. 2).
  double ProbeMiss(double bytes) const {
    if (bytes <= 0.0) return 0.0;
    double resident = mem_.buffer_bytes / bytes;
    if (resident > 1.0) resident = 1.0;
    double miss = 1.0 - std::pow(resident, 1.5);
    return miss < 0.0 ? 0.0 : miss;
  }

  Sig SeqScan(const PlanNode& node, Activity* act) {
    const TableDef& t = catalog_.table(node.table);
    double pages = t.Pages() * cold_miss_;
    act->seq_pages += pages;
    // Remote/replicated tables: every page actually read (cache misses
    // only — cached pages do not re-ship) also traverses the network.
    act->net_pages += pages * node.remote_fraction;
    act->tuples += t.rows;
    act->op_evals += t.rows * node.num_predicates;
    if constexpr (kSignature) return "SS";
    else return Sig{};
  }

  Sig IndexScan(const PlanNode& node, Activity* act) {
    const TableDef& t = catalog_.table(node.table);
    const IndexDef& idx = catalog_.index(node.index);
    double rows_sel = t.rows * node.scan_selectivity;
    double descent = catalog_.IndexHeight(node.index);
    double leaf = catalog_.IndexLeafPages(node.index) * node.scan_selectivity;
    double read_pages = (descent + leaf) * cold_miss_;
    act->rand_pages += read_pages;
    if (idx.clustered) {
      double heap_pages = t.Pages() * node.scan_selectivity * cold_miss_;
      act->seq_pages += heap_pages;
      read_pages += heap_pages;
    } else {
      double heap_fetches = rows_sel < t.Pages() ? rows_sel : t.Pages();
      act->rand_pages += heap_fetches * cold_miss_;
      read_pages += heap_fetches * cold_miss_;
    }
    act->net_pages += read_pages * node.remote_fraction;
    act->index_tuples += rows_sel;
    act->tuples += rows_sel;
    act->op_evals += rows_sel * node.num_predicates;
    if constexpr (kSignature) return "IXS";
    else return Sig{};
  }

  Sig NestLoop(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    Sig rs = Walk(*node.right, act);  // first inner pass
    double probes = node.left->output_rows;
    double inner_rows = node.right->output_rows;
    double inner_bytes = inner_rows * node.right->output_width_bytes;
    double rescans = probes > 1.0 ? probes - 1.0 : 0.0;
    act->seq_pages += rescans * PagesOf(inner_bytes) * HotMiss(inner_bytes);
    act->op_evals += probes * inner_rows;  // join-predicate evaluations
    act->tuples += node.output_rows;
    if constexpr (kSignature) return "NLJ(" + ls + "," + rs + ")";
    else return Sig{};
  }

  Sig IndexNestLoop(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    // The inner side is accessed only through per-probe index lookups; its
    // child node supplies metadata but contributes no standalone scan.
    const PlanNode& inner = *node.right;
    const TableDef& t = catalog_.table(inner.table);
    double probes = node.left->output_rows;
    double matches = node.inner_rows_per_probe;
    double descent = catalog_.IndexHeight(node.inner_index);
    double leaf_bytes = catalog_.IndexLeafPages(node.inner_index) *
                        kPageSizeBytes;
    double structure_bytes = t.Pages() * kPageSizeBytes + leaf_bytes;
    double pages_per_probe = descent + matches;
    double probe_pages = probes * pages_per_probe * ProbeMiss(structure_bytes);
    act->rand_pages += probe_pages;
    // Index probes hit the (possibly remote) inner table directly, so its
    // remote fraction ships every probed page. (NestLoop rescans, by
    // contrast, re-read the local materialization — only the inner's
    // first pass, charged by its own Walk, crosses the network.)
    act->net_pages += probe_pages * inner.remote_fraction;
    act->index_tuples += probes * (descent + matches);
    act->tuples += probes * matches;
    act->op_evals += probes * (matches + inner.num_predicates * matches);
    if constexpr (kSignature) return "INLJ(" + ls + "," + t.name + ")";
    else return Sig{};
  }

  Sig HashJoin(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    Sig rs = Walk(*node.right, act);
    double build_rows = node.right->output_rows;
    double probe_rows = node.left->output_rows;
    double build_bytes =
        build_rows * node.right->output_width_bytes * kHashBuildOverhead;
    double probe_bytes = probe_rows * node.left->output_width_bytes;
    double mem = EffectiveWorkMem(mem_);
    int batches = static_cast<int>(std::ceil(build_bytes / mem));
    if (batches < 1) batches = 1;
    if (batches > 1) {
      // Hybrid hash join: the first batch never spills.
      double frac = static_cast<double>(batches - 1) / batches;
      act->spill_pages += 2.0 * PagesOf(build_bytes + probe_bytes) * frac;
    }
    act->op_evals += build_rows * 2.0 + probe_rows * 1.5;
    act->tuples += node.output_rows;
    if constexpr (kSignature) {
      char tag[32];
      std::snprintf(tag, sizeof(tag), "HJ(b=%d,", batches);
      return std::string(tag) + ls + "," + rs + ")";
    } else {
      return Sig{};
    }
  }

  Sig MergeJoin(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    Sig rs = Walk(*node.right, act);
    act->op_evals += node.left->output_rows + node.right->output_rows;
    act->tuples += node.output_rows;
    if constexpr (kSignature) return "MJ(" + ls + "," + rs + ")";
    else return Sig{};
  }

  Sig Sort(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    double rows = node.left->output_rows;
    double bytes = rows * node.left->output_width_bytes;
    double mem = EffectiveWorkMem(mem_);
    act->op_evals += rows * Log2Rows(rows);
    if (bytes <= mem) {
      if constexpr (kSignature) return "Sort(mem," + ls + ")";
      else return Sig{};
    }
    double runs = std::ceil(bytes / mem);
    double fanin = mem / kPageSizeBytes - 1.0;
    if (fanin < 2.0) fanin = 2.0;
    int passes =
        static_cast<int>(std::ceil(std::log(runs) / std::log(fanin)));
    if (passes < 1) passes = 1;
    act->spill_pages += 2.0 * PagesOf(bytes) * passes;
    act->op_evals += rows * passes;
    if constexpr (kSignature) {
      char tag[32];
      std::snprintf(tag, sizeof(tag), "Sort(p=%d,", passes);
      return std::string(tag) + ls + ")";
    } else {
      return Sig{};
    }
  }

  Sig HashAgg(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    double input_rows = node.left->output_rows;
    double ht_bytes =
        node.num_groups * node.group_row_width * kHashTableOverhead;
    double mem = EffectiveWorkMem(mem_);
    int batches = static_cast<int>(std::ceil(ht_bytes / mem));
    if (batches < 1) batches = 1;
    act->op_evals += input_rows * (1.0 + node.num_aggregates);
    act->tuples += node.num_groups;
    if (batches > 1) {
      // Engines pre-aggregate before spilling, so overflow partitions hold
      // (partial) groups, not raw input.
      double frac = static_cast<double>(batches - 1) / batches;
      act->spill_pages += 2.0 * PagesOf(ht_bytes) * frac;
      if constexpr (kSignature) {
        char tag[32];
        std::snprintf(tag, sizeof(tag), "HAgg(b=%d,", batches);
        return std::string(tag) + ls + ")";
      } else {
        return Sig{};
      }
    }
    if constexpr (kSignature) return "HAgg(mem," + ls + ")";
    else return Sig{};
  }

  Sig SortAgg(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);  // child is a Sort
    double input_rows = node.left->output_rows;
    act->op_evals += input_rows * node.num_aggregates;
    act->tuples += node.num_groups;
    if constexpr (kSignature) return "GAgg(" + ls + ")";
    else return Sig{};
  }

  Sig Update(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    double rows = node.update.rows_modified;
    act->write_pages +=
        rows * 0.5 + rows * node.update.index_touches_per_row * 0.25;
    act->log_bytes += rows * node.update.log_bytes_per_row;
    act->update_rows += rows;
    act->tuples += rows;
    act->index_tuples += rows * node.update.index_touches_per_row;
    if constexpr (kSignature) return "UPD(" + ls + ")";
    else return Sig{};
  }

  Sig Result(const PlanNode& node, Activity* act) {
    Sig ls = Walk(*node.left, act);
    act->rows_returned += node.output_rows;
    // Client result transfer: rows shipped to a remote client traverse
    // the network as page-equivalents of the result width.
    act->net_pages += node.output_rows * node.output_width_bytes /
                      kPageSizeBytes * node.ship_fraction;
    act->op_evals += node.left->output_rows * node.extra_ops_per_row;
    return ls;  // Result adds no tag; signatures describe the real work.
  }

  const Catalog& catalog_;
  const MemoryContext& mem_;
  double cold_miss_ = 1.0;
};

void CollectWorkingSet(const PlanNode& node, std::vector<TableId>* tables,
                       std::vector<IndexId>* indexes) {
  if (node.table != kInvalidTable) tables->push_back(node.table);
  if (node.index != kInvalidIndex) indexes->push_back(node.index);
  if (node.inner_index != kInvalidIndex) indexes->push_back(node.inner_index);
  if (node.left != nullptr) CollectWorkingSet(*node.left, tables, indexes);
  if (node.right != nullptr) CollectWorkingSet(*node.right, tables, indexes);
}

}  // namespace

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kSeqScan: return "SeqScan";
    case PlanOp::kIndexScan: return "IndexScan";
    case PlanOp::kNestLoopJoin: return "NestLoopJoin";
    case PlanOp::kIndexNestLoopJoin: return "IndexNestLoopJoin";
    case PlanOp::kHashJoin: return "HashJoin";
    case PlanOp::kMergeJoin: return "MergeJoin";
    case PlanOp::kSort: return "Sort";
    case PlanOp::kHashAggregate: return "HashAggregate";
    case PlanOp::kSortAggregate: return "SortAggregate";
    case PlanOp::kUpdate: return "Update";
    case PlanOp::kResult: return "Result";
  }
  return "Unknown";
}

Activity& Activity::operator+=(const Activity& other) {
  seq_pages += other.seq_pages;
  rand_pages += other.rand_pages;
  spill_pages += other.spill_pages;
  write_pages += other.write_pages;
  log_bytes += other.log_bytes;
  tuples += other.tuples;
  op_evals += other.op_evals;
  index_tuples += other.index_tuples;
  rows_returned += other.rows_returned;
  update_rows += other.update_rows;
  net_pages += other.net_pages;
  return *this;
}

PlanPtr AdoptPlan(std::shared_ptr<PlanArena> arena, const PlanNode* root) {
  return PlanPtr(std::move(arena), root);
}

Activity ComputeActivity(const Catalog& catalog, const PlanNode& plan,
                         const MemoryContext& mem, std::string* signature) {
  double working_set = PlanWorkingSetBytes(catalog, plan);
  Activity act;
  if (signature != nullptr) {
    ActivityWalker<true> walker(catalog, mem, working_set);
    *signature = walker.Walk(plan, &act);
  } else {
    ActivityWalker<false> walker(catalog, mem, working_set);
    walker.Walk(plan, &act);
  }
  return act;
}

double PlanWorkingSetBytes(const Catalog& catalog, const PlanNode& plan) {
  // Dedup via sort+unique rather than std::set: ascending iteration (and
  // therefore the floating-point summation order) is identical, without
  // per-insert node allocations on the costing hot path.
  std::vector<TableId> tables;
  std::vector<IndexId> indexes;
  CollectWorkingSet(plan, &tables, &indexes);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  double bytes = 0.0;
  for (TableId t : tables) bytes += catalog.table(t).Pages() * kPageSizeBytes;
  for (IndexId i : indexes) bytes += catalog.IndexLeafPages(i) * kPageSizeBytes;
  return bytes;
}

}  // namespace vdba::simdb
