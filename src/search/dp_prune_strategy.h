// Dominance-pruned dynamic-programming search over the allocation grid.
//
// Walking the full cartesian grid is exponential in N x M, so the
// brute-force walk survives only as a test oracle for small N
// (tests/grid_oracle.h). DpPruneStrategy computes the same argmin at any
// N: the objective is separable per tenant (sum_i G_i * Cost_i(R_i)) and
// the only coupling between tenants is the per-dimension share budget, so
// the grid argmin can be computed bottom-up over tenant prefixes — for each
// prefix and each discretized residual budget, memoize the best partial
// allocation, and prune any table entry whose (cost, per-dimension
// residual) is dominated by another. This is the classic DP-table shape of
// RDF-3X's PlanGen (a `DPset` of subproblems, each keeping only its
// non-dominated plans), transplanted from join ordering to allocation
// search. The result is bit-exact with the grid oracle on the same grid
// (same share doubles, same objective accumulation order, same grid-order
// tie-break) while the table size is polynomial in the budget
// discretization instead of exponential in N.
//
// Each DP level prices all of one tenant's candidate grid allocations
// through ONE CostEstimator::EstimateMany fan-out, so the vectorized
// what-if kernel does the heavy lifting exactly as it does for the other
// strategies.
#ifndef VDBA_SEARCH_DP_PRUNE_STRATEGY_H_
#define VDBA_SEARCH_DP_PRUNE_STRATEGY_H_

#include <array>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "advisor/allocation.h"
#include "advisor/cost_estimator.h"
#include "advisor/qos.h"
#include "advisor/search_strategy.h"
#include "simvm/resource_vector.h"

namespace vdba::search {

/// \brief The discretized share ladder of one allocated dimension.
///
/// Shares on the grid are min_share + k * delta for k = 0, 1, ... — and
/// the doubles are generated with the same repeated-addition loop as the
/// grid oracle's share enumeration (tests/grid_oracle.h), so a ladder
/// value is bitwise identical to the share the brute-force walk produces.
/// `k` (the number of *extra* delta steps beyond the min_share floor) is
/// the unit of the DP's residual-budget accounting: a prefix of `i`
/// tenants that spent `S` total extra steps in a dimension has consumed
/// `i * min_share + S * delta` of that dimension's budget of 1.
class BudgetGrid {
 public:
  BudgetGrid(double delta, double min_share);

  double delta() const { return delta_; }
  double min_share() const { return min_share_; }

  /// Number of ladder rungs (shares <= 1 within the boundary epsilon).
  int size() const { return static_cast<int>(ladder_.size()); }

  /// Share value at `steps` extra delta-steps above min_share.
  double ShareFor(int steps) const {
    return ladder_[static_cast<size_t>(steps)];
  }

  /// Inverse of ShareFor: the rung whose value matches `share` within the
  /// grid epsilon, or -1 when `share` is off the ladder. Round-trips
  /// ShareFor exactly: StepsFor(ShareFor(k)) == k for every rung.
  int StepsFor(double share) const;

  /// Budget consumed by a prefix of `tenants` tenants that spent
  /// `total_steps` extra steps in one dimension.
  double Used(int tenants, int total_steps) const {
    return static_cast<double>(tenants) * min_share_ +
           static_cast<double>(total_steps) * delta_;
  }

  /// Largest extra-step count the next tenant can take given `used` budget
  /// already consumed and `remaining` tenants (itself included) still to
  /// place — the DP twin of the grid walk's
  /// `v <= 1 - used - min_share * (remaining - 1) + 1e-9` bound. -1 when
  /// even the min_share floor does not fit.
  int MaxSteps(double used, int remaining) const;

 private:
  double delta_;
  double min_share_;
  std::vector<double> ladder_;
};

/// One memoized subproblem solution: the best-known partial allocation of
/// a tenant prefix that consumed `steps[d]` extra budget steps per
/// dimension, at accumulated objective `cost`. `parent` / `option` back-
/// track the choice chain (indices into the previous level's pruned
/// entries and this level's option list).
struct DpEntry {
  double cost = 0.0;
  std::array<int, simvm::kMaxResourceDims> steps{};
  int parent = -1;
  int option = -1;
};

/// \brief One DP level's memo table: entries keyed by their residual-steps
/// vector, with Pareto-dominance pruning across keys.
///
/// Determinism contract (what the bit-exactness proof leans on):
///  - Insert with an existing key keeps the incumbent unless the newcomer
///    has strictly lower cost, or equal cost and strictly earlier grid
///    order; equal cost, equal residuals, equal grid order keeps the
///    FIRST-inserted entry.
///  - Prune removes an entry only when a Dominates() witness exists:
///    cost <=, residual >= in every dimension, and either strictly
///    cheaper or grid-order no later. The strictly-cheaper clause is what
///    makes the table polynomial; the grid-order clause is what keeps the
///    grid walk's first-minimum-wins tie-break intact.
class DpMemoTable {
 public:
  /// Three-way grid-order comparator over two entries of the same level:
  /// negative when `a`'s partial allocation comes earlier in the
  /// brute-force grid enumeration order (dimension-major, tenant-minor,
  /// smaller share first), 0 when identical.
  using GridOrder = std::function<int(const DpEntry&, const DpEntry&)>;

  DpMemoTable(int dims, GridOrder grid_order);

  /// Memoized insert. Returns true when `e` was stored (fresh key or it
  /// replaced a worse incumbent), false when the incumbent was kept.
  bool Insert(const DpEntry& e);

  /// True when `a` dominates `b`: no completion of `b` can beat every
  /// completion of `a`, including on the grid-order tie-break.
  bool Dominates(const DpEntry& a, const DpEntry& b) const;

  /// Drops every entry another entry Dominates(). Surviving entries keep
  /// their insertion order.
  void Prune();

  /// Entries in insertion order (indices are what the next level's
  /// `parent` fields reference — only valid after the final Prune()).
  const std::vector<DpEntry>& entries() const { return entries_; }

 private:
  struct StepsKeyHash {
    size_t operator()(const std::array<int, simvm::kMaxResourceDims>& k) const;
  };

  int dims_;
  GridOrder grid_order_;
  std::vector<DpEntry> entries_;
  std::unordered_map<std::array<int, simvm::kMaxResourceDims>, size_t,
                     StepsKeyHash>
      index_;
};

/// \brief Provably-optimal grid search at any N.
///
/// Returns the same allocation as the brute-force grid walk
/// (tests/grid_oracle.h) on the same grid (bit-identical doubles,
/// including ties) for any N, without ever materializing the cartesian
/// product: the DP table over (tenant prefix, residual budget) grows with
/// the budget discretization, not with N. Dimensions the options pin keep
/// the `initial` shares when one is given (the 1/N grid default
/// otherwise); `initial` is otherwise ignored — an exact search has
/// nothing to warm-start from. Delta schedules do not apply (the grid is
/// the base `options.delta`).
class DpPruneStrategy : public advisor::SearchStrategy {
 public:
  explicit DpPruneStrategy(advisor::EnumeratorOptions options)
      : options_(std::move(options)) {}

  advisor::EnumerationResult Run(
      advisor::CostEstimator* estimator,
      const std::vector<advisor::QosSpec>& qos,
      std::vector<simvm::ResourceVector> initial) const override;
  std::string_view name() const override { return "dp_prune"; }

 private:
  advisor::EnumeratorOptions options_;
};

}  // namespace vdba::search

#endif  // VDBA_SEARCH_DP_PRUNE_STRATEGY_H_
