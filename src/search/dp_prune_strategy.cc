#include "search/dp_prune_strategy.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/check.h"

namespace vdba::search {

namespace {

using advisor::CostEstimator;
using advisor::EnumerationResult;
using advisor::QosSpec;
using advisor::TenantAllocation;
using simvm::ResourceVector;

/// Same boundary slack as the grid walk's share enumeration.
constexpr double kGridEpsilon = 1e-9;

int ClampToInt(long v) {
  return static_cast<int>(
      std::min<long>(v, std::numeric_limits<int>::max()));
}

}  // namespace

BudgetGrid::BudgetGrid(double delta, double min_share)
    : delta_(delta), min_share_(min_share) {
  VDBA_CHECK_GT(delta_, 0.0);
  VDBA_CHECK_GT(min_share_, 0.0);
  // Repeated addition, NOT min_share + k * delta: the grid walk
  // (tests/grid_oracle.h) accumulates (`for (v = min_share; ...;
  // v += delta)`), and bit-exact parity needs the exact same rounding at
  // every rung. Each rung is clamped to 1.0: the accumulated top rung can
  // land just above it (0.05 in steps of 0.05 reaches 1.0000000000000002),
  // which is no valid share; only a one-tenant solve can reach that rung.
  for (double v = min_share_; v <= 1.0 + kGridEpsilon; v += delta_) {
    ladder_.push_back(std::min(v, 1.0));
  }
  VDBA_CHECK(!ladder_.empty());
}

int BudgetGrid::StepsFor(double share) const {
  for (size_t k = 0; k < ladder_.size(); ++k) {
    double diff = ladder_[k] - share;
    if (diff < 0) diff = -diff;
    if (diff <= kGridEpsilon) return static_cast<int>(k);
  }
  return -1;
}

int BudgetGrid::MaxSteps(double used, int remaining) const {
  const double limit =
      1.0 - used - min_share_ * static_cast<double>(remaining - 1);
  int best = -1;
  for (size_t k = 0; k < ladder_.size(); ++k) {
    if (ladder_[k] <= limit + kGridEpsilon) best = static_cast<int>(k);
  }
  return best;
}

size_t DpMemoTable::StepsKeyHash::operator()(
    const std::array<int, simvm::kMaxResourceDims>& k) const {
  // splitmix64-style combine (same idiom as the estimator's CacheKeyHash).
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int v : k) {
    uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + h;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h = x ^ (x >> 31);
  }
  return static_cast<size_t>(h);
}

DpMemoTable::DpMemoTable(int dims, GridOrder grid_order)
    : dims_(dims), grid_order_(std::move(grid_order)) {
  VDBA_CHECK_GT(dims_, 0);
  VDBA_CHECK_LE(dims_, simvm::kMaxResourceDims);
}

bool DpMemoTable::Insert(const DpEntry& e) {
  auto [it, inserted] = index_.try_emplace(e.steps, entries_.size());
  if (inserted) {
    entries_.push_back(e);
    return true;
  }
  DpEntry& incumbent = entries_[it->second];
  // Equal residuals: the newcomer must be strictly cheaper, or cost-tied
  // and strictly earlier in grid order. Exact ties keep the incumbent
  // (first-inserted wins — deterministic regardless of map iteration).
  if (e.cost < incumbent.cost ||
      (e.cost == incumbent.cost && grid_order_(e, incumbent) < 0)) {
    incumbent = e;  // keeps its insertion position
    return true;
  }
  return false;
}

bool DpMemoTable::Dominates(const DpEntry& a, const DpEntry& b) const {
  if (a.cost > b.cost) return false;
  for (int d = 0; d < dims_; ++d) {
    if (a.steps[static_cast<size_t>(d)] > b.steps[static_cast<size_t>(d)]) {
      return false;
    }
  }
  // Cost-tied domination additionally needs the grid-order tie-break to
  // already favor `a`: pruning `b` must never lose the allocation the
  // grid walk's first-minimum-wins scan would have returned.
  return a.cost < b.cost || grid_order_(a, b) < 0;
}

void DpMemoTable::Prune() {
  const size_t f = entries_.size();
  std::vector<bool> dead(f, false);
  for (size_t b = 0; b < f; ++b) {
    for (size_t a = 0; a < f; ++a) {
      if (a == b || dead[a]) continue;
      if (Dominates(entries_[a], entries_[b])) {
        dead[b] = true;
        break;
      }
    }
  }
  std::vector<DpEntry> kept;
  kept.reserve(f);
  for (size_t k = 0; k < f; ++k) {
    if (!dead[k]) kept.push_back(entries_[k]);
  }
  entries_ = std::move(kept);
  index_.clear();
  for (size_t k = 0; k < entries_.size(); ++k) {
    index_.emplace(entries_[k].steps, k);
  }
}

EnumerationResult DpPruneStrategy::Run(
    CostEstimator* estimator, const std::vector<QosSpec>& qos,
    std::vector<ResourceVector> initial) const {
  const int n = estimator->num_tenants();
  const int dims = estimator->num_dims();
  VDBA_CHECK_EQ(qos.size(), static_cast<size_t>(n));
  VDBA_CHECK_GT(n, 0);
  VDBA_CHECK_GT(dims, 0);
  VDBA_CHECK_LE(dims, simvm::kMaxResourceDims);
  if (!initial.empty()) {
    VDBA_CHECK_EQ(initial.size(), static_cast<size_t>(n));
    for (ResourceVector& r : initial) r = r.Expanded(dims);
  }

  const BudgetGrid grid(options_.delta, options_.min_share);
  std::vector<int> adims;  // dimensions the enumeration moves
  for (int d = 0; d < dims; ++d) {
    if (options_.Allocates(d)) adims.push_back(d);
  }

  // Tenant i's allocation with every non-enumerated dimension already at
  // its final share: the caller's pinned share when an initial allocation
  // was given, the 1/N default otherwise — as the grid oracle pins them.
  auto base_for = [&](int i) {
    ResourceVector r = ResourceVector::Uniform(dims, 1.0 / n);
    if (!initial.empty()) {
      for (int d = 0; d < dims; ++d) {
        if (!options_.Allocates(d)) {
          r.set(d, initial[static_cast<size_t>(i)].share(d));
        }
      }
    }
    return r;
  };

  // levels[i]: pruned memo entries after placing tenants 0..i.
  // level_options[i]: tenant i's candidate allocations (what `option`
  // indexes). Both stay live so entry chains can be replayed.
  std::vector<std::vector<DpEntry>> levels;
  std::vector<std::vector<ResourceVector>> level_options;
  levels.reserve(static_cast<size_t>(n));
  level_options.reserve(static_cast<size_t>(n));

  // Partial allocation of an entry at `level`, by walking the back chain.
  auto replay = [&](int level, const DpEntry& e) {
    std::vector<ResourceVector> alloc(static_cast<size_t>(level + 1));
    const DpEntry* cur = &e;
    for (int l = level; l >= 0; --l) {
      alloc[static_cast<size_t>(l)] =
          level_options[static_cast<size_t>(l)]
                       [static_cast<size_t>(cur->option)];
      if (l > 0) {
        cur = &levels[static_cast<size_t>(l - 1)]
                     [static_cast<size_t>(cur->parent)];
      }
    }
    return alloc;
  };

  // Grid-enumeration order over two same-level prefixes: dimension-major,
  // tenant-minor, smaller share first. With identical
  // suffixes this is exactly the order the sequential grid walk visits
  // full candidates in, so "grid_cmp < 0" == "would have been found
  // first".
  auto make_grid_cmp = [&](int level) {
    return [&, level](const DpEntry& a, const DpEntry& b) {
      std::vector<ResourceVector> pa = replay(level, a);
      std::vector<ResourceVector> pb = replay(level, b);
      for (int d = 0; d < dims; ++d) {
        for (int t = 0; t <= level; ++t) {
          const double x = pa[static_cast<size_t>(t)].share(d);
          const double y = pb[static_cast<size_t>(t)].share(d);
          if (x < y) return -1;
          if (x > y) return 1;
        }
      }
      return 0;
    };
  };

  const DpEntry root;  // empty prefix: cost 0, nothing consumed
  long expansions = 0;
  for (int i = 0; i < n; ++i) {
    const std::vector<DpEntry> root_level{root};
    const std::vector<DpEntry>& prev =
        i == 0 ? root_level : levels[static_cast<size_t>(i - 1)];
    const int remaining = n - i;

    // Option list: every grid allocation of tenant i that fits the most
    // permissive residual any frontier entry offers (per-entry residuals
    // re-check below). Enumerated dimension-major so the list order is
    // deterministic.
    std::array<int, simvm::kMaxResourceDims> loose_cap{};
    for (int d : adims) {
      int min_steps = std::numeric_limits<int>::max();
      for (const DpEntry& e : prev) {
        min_steps = std::min(min_steps, e.steps[static_cast<size_t>(d)]);
      }
      const int cap = grid.MaxSteps(grid.Used(i, min_steps), remaining);
      VDBA_CHECK_MSG(cap >= 0,
                     "dp_prune: no feasible grid allocation (n=%d, "
                     "min_share=%g leaves no budget in dimension %d)",
                     n, options_.min_share, d);
      loose_cap[static_cast<size_t>(d)] = cap;
    }
    std::vector<ResourceVector> opts;
    std::vector<std::array<int, simvm::kMaxResourceDims>> opt_steps;
    {
      std::array<int, simvm::kMaxResourceDims> k{};
      const ResourceVector base = base_for(i);
      // Odometer over the allocated dimensions, first dimension slowest
      // (the grid walk's outer loop is dimension 0).
      for (;;) {
        ResourceVector r = base;
        for (int d : adims) {
          r.set(d, grid.ShareFor(k[static_cast<size_t>(d)]));
        }
        opts.push_back(r);
        opt_steps.push_back(k);
        int pos = static_cast<int>(adims.size()) - 1;
        while (pos >= 0) {
          int d = adims[static_cast<size_t>(pos)];
          if (++k[static_cast<size_t>(d)] <=
              loose_cap[static_cast<size_t>(d)]) {
            break;
          }
          k[static_cast<size_t>(d)] = 0;
          --pos;
        }
        if (pos < 0) break;
        if (adims.empty()) break;  // single pinned-only option
      }
    }

    // ONE cross-candidate fan-out per level: the batched estimator prices
    // tenant i at every option at once (the vectorized what-if kernel
    // collapses them into per-statement grid walks).
    std::vector<TenantAllocation> probes;
    probes.reserve(opts.size());
    for (const ResourceVector& r : opts) probes.push_back({i, r});
    const std::vector<double> ests = estimator->EstimateMany(probes);
    std::vector<double> opt_cost(opts.size());
    for (size_t o = 0; o < opts.size(); ++o) {
      opt_cost[o] = qos[static_cast<size_t>(i)].gain_factor * ests[o];
    }

    DpMemoTable table(dims, make_grid_cmp(i));
    level_options.push_back(std::move(opts));
    for (size_t p = 0; p < prev.size(); ++p) {
      const DpEntry& e = prev[p];
      // Per-dimension cap under THIS entry's residual.
      std::array<int, simvm::kMaxResourceDims> cap{};
      bool feasible = true;
      for (int d : adims) {
        cap[static_cast<size_t>(d)] = grid.MaxSteps(
            grid.Used(i, e.steps[static_cast<size_t>(d)]), remaining);
        if (cap[static_cast<size_t>(d)] < 0) feasible = false;
      }
      if (!feasible) continue;
      for (size_t o = 0; o < level_options.back().size(); ++o) {
        bool fits = true;
        for (int d : adims) {
          if (opt_steps[o][static_cast<size_t>(d)] >
              cap[static_cast<size_t>(d)]) {
            fits = false;
            break;
          }
        }
        if (!fits) continue;
        ++expansions;
        DpEntry next;
        next.cost = e.cost + opt_cost[o];
        next.steps = e.steps;
        for (int d : adims) {
          next.steps[static_cast<size_t>(d)] +=
              opt_steps[o][static_cast<size_t>(d)];
        }
        next.parent = static_cast<int>(p);
        next.option = static_cast<int>(o);
        table.Insert(next);
      }
    }
    if (i + 1 < n) table.Prune();  // final level feeds selection directly
    VDBA_CHECK_MSG(!table.entries().empty(),
                   "dp_prune: no feasible grid allocation at tenant %d", i);
    levels.push_back(table.entries());
  }

  // Final selection mirrors the grid walk's strict-< scan: lowest
  // accumulated objective, grid-order-earliest on exact ties.
  const std::vector<DpEntry>& finals = levels.back();
  auto final_cmp = make_grid_cmp(n - 1);
  size_t best = 0;
  for (size_t k = 1; k < finals.size(); ++k) {
    if (finals[k].cost < finals[best].cost ||
        (finals[k].cost == finals[best].cost &&
         final_cmp(finals[k], finals[best]) < 0)) {
      best = k;
    }
  }

  EnumerationResult result = advisor::FinalizeEnumeration(
      estimator, qos, replay(n - 1, finals[best]));
  result.iterations = ClampToInt(expansions);
  result.converged = true;
  return result;
}

}  // namespace vdba::search
