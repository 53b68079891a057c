// Logical query representation ("query IR").
//
// The advisor never parses SQL; workloads are sets of structurally-described
// queries (relations + join graph + aggregation/sort shape + OLTP update
// characteristics). This mirrors what the paper extracts from its TPC-H /
// TPC-C workloads: per-statement optimizer cost as a function of resources.
#ifndef VDBA_SIMDB_QUERY_H_
#define VDBA_SIMDB_QUERY_H_

#include <string>
#include <vector>

#include "simdb/types.h"

namespace vdba::simdb {

/// One base-relation occurrence in a query.
struct RelationRef {
  TableId table = kInvalidTable;
  /// Fraction of rows that survive this relation's local predicates.
  double filter_selectivity = 1.0;
  /// Number of predicate terms (feeds cpu_operator_cost accounting).
  int num_predicates = 0;
  /// Name of an indexed column usable for the most selective predicate
  /// (empty = no usable index; the optimizer then has only SeqScan).
  std::string index_column;
  /// Fraction of this relation's page reads served by a remote replica
  /// (replicated / shared-storage table): those pages additionally
  /// traverse the network on top of the storage node's disk I/O. 0 (the
  /// default) is a fully local table — no network cost, preserving the
  /// paper's M <= 3 behaviour exactly.
  double remote_fraction = 0.0;

  bool operator==(const RelationRef&) const = default;
};

/// Equi-join edge between two relations of the query.
/// |A JOIN B| = |A| * |B| * selectivity.
struct JoinPredicate {
  int left_rel = 0;
  int right_rel = 0;
  double selectivity = 0.0;
  /// Indexed column on the right relation usable for index-nested-loops
  /// when the right side is joined as the inner (empty = none).
  std::string right_index_column;

  bool operator==(const JoinPredicate&) const = default;
};

enum class AggregateKind {
  kNone,    ///< No aggregation.
  kScalar,  ///< One output row (e.g. select count(*)).
  kGrouped, ///< GROUP BY producing `num_groups` rows.
};

/// Aggregation shape.
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kNone;
  double num_groups = 1.0;
  /// Number of aggregate expressions (each costs one operator eval per
  /// input row; TPC-H Q1 has eight, which is what makes it CPU-bound).
  int num_aggregates = 1;
  double group_row_width = 48.0;
  /// Fraction of groups surviving a HAVING clause.
  double having_selectivity = 1.0;

  bool operator==(const AggregateSpec&) const = default;
};

/// Final ORDER BY over the result.
struct SortSpec {
  bool required = false;
  double row_width = 48.0;

  bool operator==(const SortSpec&) const = default;
};

/// Write activity of the statement (OLTP transactions).
struct UpdateSpec {
  double rows_modified = 0.0;
  /// Secondary-index entries touched per modified row.
  double index_touches_per_row = 0.0;
  double log_bytes_per_row = 120.0;

  bool operator==(const UpdateSpec&) const = default;
};

/// A single SQL statement, structurally described.
///
/// Equality is memberwise over every field (the five member structs
/// included): the what-if estimator shares one statement's optimizer
/// costs between every tenant whose statement compares equal, so a field
/// left out of the comparison would let two different queries share a
/// cost.
struct QuerySpec {
  std::string name;
  std::vector<RelationRef> relations;
  std::vector<JoinPredicate> joins;
  AggregateSpec aggregate;
  SortSpec order_by;
  UpdateSpec update;

  /// Extra per-output-row expression work (projection arithmetic, string
  /// ops). Counted as operator evaluations.
  double extra_ops_per_row = 0.0;

  /// Hard cap on rows returned to the client (0 = no limit).
  double limit_rows = 0.0;

  /// Fraction of result rows shipped to a *remote* client over the VM's
  /// network share (bulk extracts, application servers on another host).
  /// 0 (the default) models the paper's setup — results consumed locally,
  /// no network cost.
  double ship_fraction = 0.0;

  /// Marks OLTP statements: the executor applies lock-contention and
  /// logging overheads that the optimizer cost model does NOT see (this is
  /// the §7.8 modeling gap).
  bool oltp = false;

  /// For OLTP statements: concurrent clients issuing this statement
  /// (drives contention intensity in the executor).
  double concurrency = 1.0;

  bool operator==(const QuerySpec&) const = default;
};

}  // namespace vdba::simdb

#endif  // VDBA_SIMDB_QUERY_H_
