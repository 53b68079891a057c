// EstimateMany must be an exact drop-in for sequential estimation across
// tenants: same results, same cache/observation state, same counters, for
// every thread count — and the greedy enumerator built on top of it must
// return bit-identical EnumerationResults either way.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "advisor/cost_estimator.h"
#include "advisor/greedy_enumerator.h"
#include "scenario/scenario.h"
#include "util/thread_pool.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

/// WhatIfCostEstimator forced onto the sequential EstimateMany default —
/// the reference the batched fan-out must be indistinguishable from.
class SequentialWhatIfEstimator : public WhatIfCostEstimator {
 public:
  using WhatIfCostEstimator::WhatIfCostEstimator;
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override {
    return CostEstimator::EstimateMany(batch);
  }
};

class EstimateManyTest : public ::testing::Test {
 protected:
  EstimateManyTest() {
    // Deliberately heterogeneous tenants: different engines, workload
    // sizes, and frequencies, so LPT ordering and per-tenant bookkeeping
    // actually get exercised.
    simdb::Workload w1;
    for (int qn : {1, 6, 14, 18, 21}) {
      w1.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), qn), 2.0);
    }
    simdb::Workload w2;
    w2.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 17), 3.0);
    simdb::Workload w3;
    for (int qn : {3, 12}) {
      w3.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), qn), 1.5);
    }
    tenants_.push_back(tb_.MakeTenant(tb_.pg_sf1(), w1));
    tenants_.push_back(tb_.MakeTenant(tb_.db2_sf1(), w2));
    tenants_.push_back(tb_.MakeTenant(tb_.pg_sf1(), w3));
  }

  /// A cross-tenant batch shaped like a greedy frontier: every tenant
  /// probed at several allocations, interleaved, with duplicates.
  std::vector<TenantAllocation> Frontier() const {
    std::vector<TenantAllocation> batch;
    for (double c = 0.2; c <= 0.8 + 1e-9; c += 0.3) {
      for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
        batch.push_back({t, {c, 0.5}});
        batch.push_back({t, {0.5, c}});
      }
    }
    // Duplicates of earlier probes (must replay as cache hits).
    batch.push_back({0, {0.2, 0.5}});
    batch.push_back({2, {0.5, 0.2}});
    return batch;
  }

  scenario::Testbed tb_;
  std::vector<Tenant> tenants_;
};

TEST_F(EstimateManyTest, MatchesSequentialForAnyThreadCount) {
  std::vector<TenantAllocation> frontier = Frontier();

  // Reference: plain sequential EstimateSeconds calls.
  WhatIfCostEstimator seq(tb_.machine(), tenants_);
  std::vector<double> expected;
  for (const TenantAllocation& item : frontier) {
    expected.push_back(seq.EstimateSeconds(item.tenant, item.r));
  }

  for (int threads : {1, 2, 7}) {
    WhatIfEstimatorOptions opts;
    opts.batch_threads = threads;
    WhatIfCostEstimator batch(tb_.machine(), tenants_, opts);
    std::vector<double> got = batch.EstimateMany(frontier);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], expected[i])
          << "threads=" << threads << " probe " << i;
    }
    // Identical bookkeeping: same optimizer work, same cache hits, same
    // per-tenant observation logs in the same order.
    EXPECT_EQ(batch.optimizer_calls(), seq.optimizer_calls())
        << "threads=" << threads;
    EXPECT_EQ(batch.cache_hits(), seq.cache_hits()) << "threads=" << threads;
    for (int t = 0; t < batch.num_tenants(); ++t) {
      ASSERT_EQ(batch.observations(t).size(), seq.observations(t).size())
          << "tenant " << t;
      for (size_t i = 0; i < seq.observations(t).size(); ++i) {
        EXPECT_EQ(batch.observations(t)[i].allocation,
                  seq.observations(t)[i].allocation);
        EXPECT_DOUBLE_EQ(batch.observations(t)[i].est_seconds,
                         seq.observations(t)[i].est_seconds);
        EXPECT_EQ(batch.observations(t)[i].plan_signature,
                  seq.observations(t)[i].plan_signature);
      }
    }
  }
}

TEST_F(EstimateManyTest, SameAllocationDistinctTenantsComputedPerTenant) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  // The same allocation tagged with different tenants is a distinct cache
  // key per tenant: each costs its own optimizer calls.
  std::vector<TenantAllocation> batch = {
      {0, {0.5, 0.5}}, {1, {0.5, 0.5}}, {2, {0.5, 0.5}}};
  est.EstimateMany(batch);
  long expected_calls = 0;
  for (const Tenant& t : tenants_) {
    expected_calls += static_cast<long>(t.workload.statements.size());
  }
  EXPECT_EQ(est.optimizer_calls(), expected_calls);
  EXPECT_EQ(est.cache_hits(), 0);
  for (int t = 0; t < est.num_tenants(); ++t) {
    EXPECT_EQ(est.observations(t).size(), 1u);
  }
}

TEST_F(EstimateManyTest, MixedCachedAndUncachedAcrossTenants) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  est.EstimateSeconds(1, {0.5, 0.5});  // pre-warm one tenant
  long calls_before = est.optimizer_calls();

  std::vector<TenantAllocation> batch = {
      {1, {0.5, 0.5}},  // cached
      {0, {0.3, 0.5}},  // new
      {0, {0.3, 0.5}},  // duplicate of the new probe
      {2, {0.3, 0.5}},  // same allocation, different tenant -> new
      {1, {0.5, 0.5}},  // cached again
  };
  std::vector<double> got = est.EstimateMany(batch);
  EXPECT_DOUBLE_EQ(got[0], got[4]);
  EXPECT_DOUBLE_EQ(got[1], got[2]);
  long new_calls =
      static_cast<long>(tenants_[0].workload.statements.size()) +
      static_cast<long>(tenants_[2].workload.statements.size());
  EXPECT_EQ(est.optimizer_calls() - calls_before, new_calls);
  EXPECT_EQ(est.cache_hits(), 3);
  EXPECT_EQ(est.observations(0).size(), 1u);
  EXPECT_EQ(est.observations(2).size(), 1u);
}

TEST_F(EstimateManyTest, EmptyBatchIsANoOp) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  EXPECT_TRUE(est.EstimateMany({}).empty());
  EXPECT_EQ(est.optimizer_calls(), 0);
}

TEST_F(EstimateManyTest, BaseClassDefaultIsSequential) {
  // A CostEstimator that does not override EstimateMany still gets the
  // correct (sequential, tenant-tagged) semantics.
  class Synthetic : public CostEstimator {
   public:
    double EstimateSeconds(int tenant,
                           const simvm::ResourceVector& r) override {
      return (tenant + 1) / r.cpu_share() + 2.0 / r.mem_share();
    }
    int num_tenants() const override { return 2; }
    int num_dims() const override { return 2; }
  };
  Synthetic s;
  std::vector<TenantAllocation> batch = {{0, {0.5, 0.5}}, {1, {0.5, 0.5}}};
  std::vector<double> got = s.EstimateMany(batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 6.0);
  EXPECT_DOUBLE_EQ(got[1], 8.0);
}

TEST_F(EstimateManyTest, GreedyEnumerationIdenticalBatchedVsSequential) {
  // The tentpole determinism claim end to end: greedy enumeration over
  // the real what-if estimator returns bit-identical results whether the
  // frontier fans out over the pool or runs sequentially — including with
  // per-dimension delta schedules annealing coarse-to-fine.
  EnumeratorOptions opts;
  opts.deltas[simvm::kCpuDim] = {0.1, 0.05};
  opts.deltas[simvm::kMemDim] = {0.1, 0.05};
  GreedyEnumerator greedy(opts);
  std::vector<QosSpec> qos(tenants_.size());

  WhatIfCostEstimator batched(tb_.machine(), tenants_);
  SequentialWhatIfEstimator sequential(tb_.machine(), tenants_);
  EnumerationResult a = greedy.Run(&batched, qos);
  EnumerationResult b = greedy.Run(&sequential, qos);

  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i], b.allocations[i]) << "tenant " << i;
    EXPECT_DOUBLE_EQ(a.tenant_costs[i], b.tenant_costs[i]);
  }
  EXPECT_EQ(a.violated_qos, b.violated_qos);
  // Same probes -> same optimizer work and observation streams.
  EXPECT_EQ(batched.optimizer_calls(), sequential.optimizer_calls());
  for (int t = 0; t < batched.num_tenants(); ++t) {
    EXPECT_EQ(batched.observations(t).size(),
              sequential.observations(t).size());
  }
}

TEST_F(EstimateManyTest, SetWorkloadInvalidatesOnlyThatTenantAfterFanOut) {
  // Regression: after a cross-tenant EstimateMany fan-out populated every
  // tenant's cache and observation log, SetWorkload(t) must wipe tenant
  // t's state completely — and nobody else's.
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  est.EstimateMany(Frontier());
  const size_t obs0 = est.observations(0).size();
  const size_t obs1 = est.observations(1).size();
  const size_t obs2 = est.observations(2).size();
  ASSERT_GT(obs1, 0u);
  const double t1_before = est.EstimateSeconds(1, {0.5, 0.5});
  const long calls_before = est.optimizer_calls();
  const long hits_before = est.cache_hits();

  // Frequency-only change: Q17 x3 becomes Q17 x30.
  simdb::Workload heavier;
  heavier.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 17), 30.0);
  est.SetWorkload(1, heavier);

  // Tenant 1's log is gone; the neighbours' are untouched.
  EXPECT_TRUE(est.observations(1).empty());
  EXPECT_EQ(est.observations(0).size(), obs0);
  EXPECT_EQ(est.observations(2).size(), obs2);

  // Re-probing the whole frontier: tenant 1's probes are cache misses
  // again, the other tenants' replay purely from cache. Tenant 1 still
  // runs Q17, which the statement memo already priced at every frontier
  // allocation, so the misses cost no optimizer call.
  std::vector<TenantAllocation> frontier = Frontier();
  est.EstimateMany(frontier);
  const size_t tenant1_distinct = est.observations(1).size();
  EXPECT_GT(tenant1_distinct, 0u);
  EXPECT_EQ(est.optimizer_calls() - calls_before, 0);
  // Every non-tenant-1 probe of the frontier was a cache hit.
  EXPECT_EQ(est.cache_hits() - hits_before,
            static_cast<long>(frontier.size()) -
                static_cast<long>(tenant1_distinct));
  EXPECT_EQ(est.observations(0).size(), obs0);
  EXPECT_EQ(est.observations(2).size(), obs2);

  // And the invalidation is semantic, not just bookkeeping: the heavier
  // workload estimates heavier.
  EXPECT_GT(est.EstimateSeconds(1, {0.5, 0.5}), t1_before);

  // Statements no tenant runs have nothing in the memo: every distinct
  // allocation costs one evaluation per statement.
  simdb::Workload fresh;
  fresh.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 5), 1.0);
  fresh.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 10), 2.0);
  est.SetWorkload(1, fresh);
  const long calls_before_fresh = est.optimizer_calls();
  est.EstimateMany(frontier);
  ASSERT_EQ(est.observations(1).size(), tenant1_distinct);
  EXPECT_EQ(est.optimizer_calls() - calls_before_fresh,
            static_cast<long>(tenant1_distinct) *
                static_cast<long>(fresh.statements.size()));
}

simdb::Workload TpchWorkload(const workload::TpchDatabase& db,
                             std::initializer_list<int> queries,
                             double frequency) {
  simdb::Workload w;
  for (int qn : queries) w.AddStatement(workload::TpchQuery(db, qn), frequency);
  return w;
}

TEST_F(EstimateManyTest, TenantsSharingStatementsMatchOneEstimatorEach) {
  // The statement memo serves every tenant that runs a statement: tenants
  // sharing statements must see exactly the estimates, observation logs
  // and cache hits of one estimator per tenant, while the optimizer
  // prices each distinct (statement class, allocation) once.
  const workload::TpchDatabase& db = tb_.tpch_sf1();
  const std::vector<Tenant> tenants = {
      tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {1, 6, 18}, 2.0)),
      tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {6, 18, 21}, 1.5)),
      // The same queries on the other engine are other classes.
      tb_.MakeTenant(tb_.db2_sf1(), TpchWorkload(db, {6, 18}, 3.0)),
      // Tenant 0's statements at another frequency.
      tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {1, 6, 18}, 5.0)),
  };
  std::vector<TenantAllocation> batch;
  for (double c : {0.2, 0.5, 0.8}) {
    for (int t = 0; t < static_cast<int>(tenants.size()); ++t) {
      batch.push_back({t, {c, 0.5}});
      batch.push_back({t, {0.5, c}});
    }
  }
  batch.push_back({3, {0.2, 0.5}});  // duplicate: cache hit

  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WhatIfEstimatorOptions opts;
    opts.batch_threads = threads;
    WhatIfCostEstimator shared(tb_.machine(), tenants, opts);
    const std::vector<double> got = shared.EstimateMany(batch);

    long hits = 0;
    std::set<std::tuple<const void*, const void*, std::string,
                        std::vector<double>>>
        distinct;
    for (int t = 0; t < static_cast<int>(tenants.size()); ++t) {
      const Tenant& tenant = tenants[static_cast<size_t>(t)];
      WhatIfCostEstimator alone(tb_.machine(), {tenant});
      for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].tenant != t) continue;
        EXPECT_EQ(got[i], alone.EstimateSeconds(0, batch[i].r)) << i;
      }
      hits += alone.cache_hits();
      const auto& want = alone.observations(0);
      ASSERT_EQ(shared.observations(t).size(), want.size()) << t;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(shared.observations(t)[i].allocation, want[i].allocation);
        EXPECT_EQ(shared.observations(t)[i].est_seconds, want[i].est_seconds);
        EXPECT_EQ(shared.observations(t)[i].plan_signature,
                  want[i].plan_signature);
        for (const auto& stmt : tenant.workload.statements) {
          distinct.emplace(tenant.engine, tenant.calibration, stmt.query.name,
                           want[i].allocation.ToVector());
        }
      }
    }
    EXPECT_EQ(shared.cache_hits(), hits);
    EXPECT_EQ(shared.optimizer_calls(), static_cast<long>(distinct.size()));
    EXPECT_EQ(shared.memo_entries(), distinct.size());
  }
}

TEST_F(EstimateManyTest, EveryQuerySpecFieldSeparatesStatementClasses) {
  // Two tenants share a statement's memo entries only when the statements
  // compare equal in every field: a one-field change anywhere in the
  // QuerySpec or its member structs must cost its own evaluation.
  const simdb::QuerySpec base = workload::TpchQuery(tb_.tpch_sf1(), 3);
  ASSERT_EQ(base.relations.size(), 3u);
  ASSERT_EQ(base.joins.size(), 2u);
  using Spec = simdb::QuerySpec;
  using Edit = std::function<void(Spec*)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"name", [](Spec* q) { q->name += "'"; }},
      {"relations.table",
       [](Spec* q) { q->relations[0].table = q->relations[1].table; }},
      {"relations.filter_selectivity",
       [](Spec* q) { q->relations[0].filter_selectivity *= 0.5; }},
      {"relations.num_predicates",
       [](Spec* q) { q->relations[0].num_predicates += 1; }},
      {"relations.index_column",
       [](Spec* q) { q->relations[0].index_column += "_x"; }},
      {"relations.remote_fraction",
       [](Spec* q) { q->relations[0].remote_fraction = 0.25; }},
      {"joins.left_rel", [](Spec* q) { q->joins[1].left_rel = 0; }},
      {"joins.right_rel", [](Spec* q) { q->joins[0].right_rel = 2; }},
      {"joins.selectivity",
       [](Spec* q) { q->joins[0].selectivity *= 2.0; }},
      {"joins.right_index_column",
       [](Spec* q) { q->joins[0].right_index_column += "_x"; }},
      {"aggregate.kind",
       [](Spec* q) {
         q->aggregate.kind = simdb::AggregateKind::kScalar;
       }},
      {"aggregate.num_groups",
       [](Spec* q) { q->aggregate.num_groups *= 2.0; }},
      {"aggregate.num_aggregates",
       [](Spec* q) { q->aggregate.num_aggregates += 1; }},
      {"aggregate.group_row_width",
       [](Spec* q) { q->aggregate.group_row_width += 8.0; }},
      {"aggregate.having_selectivity",
       [](Spec* q) { q->aggregate.having_selectivity = 0.5; }},
      {"order_by.required",
       [](Spec* q) { q->order_by.required = !q->order_by.required; }},
      {"order_by.row_width",
       [](Spec* q) { q->order_by.row_width += 8.0; }},
      {"update.rows_modified",
       [](Spec* q) { q->update.rows_modified = 10.0; }},
      {"update.index_touches_per_row",
       [](Spec* q) { q->update.index_touches_per_row = 2.0; }},
      {"update.log_bytes_per_row",
       [](Spec* q) { q->update.log_bytes_per_row += 8.0; }},
      {"extra_ops_per_row",
       [](Spec* q) { q->extra_ops_per_row += 1.0; }},
      {"limit_rows", [](Spec* q) { q->limit_rows += 5.0; }},
      {"ship_fraction", [](Spec* q) { q->ship_fraction = 0.5; }},
      {"oltp", [](Spec* q) { q->oltp = !q->oltp; }},
      {"concurrency", [](Spec* q) { q->concurrency += 1.0; }},
  };
  auto calls_for = [&](const simdb::QuerySpec& variant) {
    simdb::Workload a;
    a.AddStatement(base);
    simdb::Workload b;
    b.AddStatement(variant);
    WhatIfCostEstimator est(tb_.machine(), {tb_.MakeTenant(tb_.pg_sf1(), a),
                                            tb_.MakeTenant(tb_.pg_sf1(), b)});
    const std::vector<TenantAllocation> batch = {{0, {0.5, 0.5}},
                                                 {1, {0.5, 0.5}}};
    est.EstimateMany(batch);
    return est.optimizer_calls();
  };
  EXPECT_EQ(calls_for(base), 1);  // an identical copy shares the class
  for (const auto& [field, edit] : edits) {
    simdb::QuerySpec variant = base;
    edit(&variant);
    EXPECT_FALSE(variant == base) << field;
    EXPECT_EQ(calls_for(variant), 2) << field;
  }
}

TEST_F(EstimateManyTest, MemoDropsAClassWithItsLastStatement) {
  const workload::TpchDatabase& db = tb_.tpch_sf1();
  WhatIfCostEstimator est(
      tb_.machine(),
      {tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {1, 6}, 1.0)),
       tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {6, 18}, 1.0))});
  std::vector<TenantAllocation> batch;
  for (double c : {0.2, 0.5, 0.8}) {
    batch.push_back({0, {c, 0.5}});
    batch.push_back({1, {c, 0.5}});
  }
  est.EstimateMany(batch);
  EXPECT_EQ(est.memo_entries(), 9u);  // Q1, Q6, Q18 at 3 allocations
  EXPECT_EQ(est.optimizer_calls(), 9);

  // A frequency-only change keeps every class.
  est.SetWorkload(1, TpchWorkload(db, {6, 18}, 4.0));
  EXPECT_EQ(est.memo_entries(), 9u);
  // Dropping Q18's last statement drops its entries; Q6 stays, tenant 0
  // still runs it.
  est.SetWorkload(1, TpchWorkload(db, {6}, 1.0));
  EXPECT_EQ(est.memo_entries(), 6u);
  // Replacing tenant 0 drops PostgreSQL Q1 (the DB2 Q1 that replaces it
  // is another class).
  est.ReplaceTenant(0,
                    tb_.MakeTenant(tb_.db2_sf1(), TpchWorkload(db, {1}, 1.0)));
  EXPECT_EQ(est.memo_entries(), 3u);

  // A dropped class is priced afresh when a statement brings it back.
  const long calls_before = est.optimizer_calls();
  est.SetWorkload(1, TpchWorkload(db, {6, 18}, 1.0));
  est.EstimateMany(batch);
  EXPECT_EQ(est.optimizer_calls() - calls_before, 6);  // DB2 Q1 + Q18, x3
  EXPECT_EQ(est.memo_entries(), 9u);
}

/// The distinct (engine, calibration, statement, allocation) evaluations
/// pricing `batch` of `tenants` from an empty memo needs.
std::set<std::tuple<const void*, const void*, std::string, std::vector<double>>>
PricedPairs(const std::vector<Tenant>& tenants,
            const std::vector<TenantAllocation>& batch) {
  std::set<std::tuple<const void*, const void*, std::string,
                      std::vector<double>>>
      pairs;
  for (const TenantAllocation& item : batch) {
    const Tenant& t = tenants[static_cast<size_t>(item.tenant)];
    for (const simdb::WorkloadStatement& stmt : t.workload.statements) {
      pairs.emplace(t.engine, t.calibration, stmt.query.name,
                    item.r.Expanded(2).ToVector());
    }
  }
  return pairs;
}

void ExpectSameObservations(const WhatIfCostEstimator& got,
                            const WhatIfCostEstimator& want) {
  ASSERT_EQ(got.num_tenants(), want.num_tenants());
  for (int t = 0; t < want.num_tenants(); ++t) {
    ASSERT_EQ(got.observations(t).size(), want.observations(t).size()) << t;
    for (size_t i = 0; i < want.observations(t).size(); ++i) {
      const WhatIfObservation& a = got.observations(t)[i];
      const WhatIfObservation& b = want.observations(t)[i];
      EXPECT_EQ(a.allocation, b.allocation) << t << " " << i;
      EXPECT_EQ(a.est_seconds, b.est_seconds) << t << " " << i;
      EXPECT_EQ(a.plan_signature, b.plan_signature) << t << " " << i;
    }
  }
}

TEST_F(EstimateManyTest, EstimatorsSharingAMemoMatchPrivateMemos) {
  // Estimators attached to one statement memo see exactly what estimators
  // with private memos see; only the optimizer's work moves: the second
  // prices only the pairs the first did not.
  const workload::TpchDatabase& db = tb_.tpch_sf1();
  const std::vector<Tenant> first_tenants = {
      tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {1, 6, 18}, 2.0)),
      tb_.MakeTenant(tb_.db2_sf1(), TpchWorkload(db, {6, 21}, 1.0))};
  const std::vector<Tenant> second_tenants = {
      // Shares PostgreSQL Q6 and Q18 with the first estimator.
      tb_.MakeTenant(tb_.pg_sf1(), TpchWorkload(db, {6, 18, 21}, 1.5)),
      // Shares DB2 Q21.
      tb_.MakeTenant(tb_.db2_sf1(), TpchWorkload(db, {21}, 4.0))};
  auto frontier = [](std::initializer_list<double> cpus) {
    std::vector<TenantAllocation> batch;
    for (double c : cpus) {
      for (int t = 0; t < 2; ++t) {
        batch.push_back({t, {c, 0.5}});
        batch.push_back({t, {0.5, c}});
      }
    }
    batch.push_back({1, {0.5, 0.5}});  // duplicate: cache hit
    return batch;
  };
  const std::vector<TenantAllocation> first_batch = frontier({0.2, 0.5});
  const std::vector<TenantAllocation> second_batch = frontier({0.5, 0.8});

  WhatIfCostEstimator private_first(tb_.machine(), first_tenants);
  WhatIfCostEstimator private_second(tb_.machine(), second_tenants);
  const std::vector<double> want_first =
      private_first.EstimateMany(first_batch);
  const std::vector<double> want_second =
      private_second.EstimateMany(second_batch);

  auto first =
      std::make_unique<WhatIfCostEstimator>(tb_.machine(), first_tenants);
  WhatIfCostEstimator second(tb_.machine(), second_tenants,
                             WhatIfEstimatorOptions(), first->memo());
  EXPECT_EQ(first->EstimateMany(first_batch), want_first);
  EXPECT_EQ(second.EstimateMany(second_batch), want_second);
  ExpectSameObservations(*first, private_first);
  ExpectSameObservations(second, private_second);
  EXPECT_EQ(first->cache_hits(), private_first.cache_hits());
  EXPECT_EQ(second.cache_hits(), private_second.cache_hits());

  const auto first_pairs = PricedPairs(first_tenants, first_batch);
  const auto second_pairs = PricedPairs(second_tenants, second_batch);
  long new_pairs = 0;
  for (const auto& pair : second_pairs) new_pairs += !first_pairs.count(pair);
  EXPECT_EQ(first->optimizer_calls(), static_cast<long>(first_pairs.size()));
  EXPECT_EQ(private_second.optimizer_calls(),
            static_cast<long>(second_pairs.size()));
  EXPECT_GT(static_cast<long>(second_pairs.size()), new_pairs);
  EXPECT_EQ(second.optimizer_calls(), new_pairs);
  EXPECT_EQ(second.memo_entries(), first_pairs.size() + new_pairs);

  // Destroying the first keeps only the classes the second references
  // (PostgreSQL Q6, Q18 and Q21, DB2 Q21), with every entry they have.
  first.reset();
  std::set<std::tuple<const void*, const void*, std::string>> classes;
  for (const Tenant& t : second_tenants) {
    for (const simdb::WorkloadStatement& stmt : t.workload.statements) {
      classes.emplace(t.engine, t.calibration, stmt.query.name);
    }
  }
  EXPECT_EQ(second.memo()->classes(), 4u);
  auto priced = first_pairs;
  priced.insert(second_pairs.begin(), second_pairs.end());
  size_t kept = 0;
  for (const auto& [engine, calibration, name, alloc] : priced) {
    kept += classes.count({engine, calibration, name});
  }
  EXPECT_LT(kept, priced.size());
  EXPECT_EQ(second.memo_entries(), kept);
  // What stays is still right: the first tenants' own probes, re-run by
  // the second estimator's tenants, reproduce the private values.
  WhatIfCostEstimator reference(tb_.machine(), second_tenants);
  EXPECT_EQ(second.EstimateMany(first_batch),
            reference.EstimateMany(first_batch));
}

TEST_F(EstimateManyTest, OnlyAMachineOfTheMemosClassCanAttach) {
  // The memo's values read the machine's memory (VmMemoryMb) and its
  // resource model; a machine differing in either must not attach.
  WhatIfCostEstimator owner(tb_.machine(), tenants_);
  simvm::PhysicalMachine bigger = tb_.machine();
  bigger.memory_mb *= 2.0;
  EXPECT_DEATH(WhatIfCostEstimator(bigger, tenants_, WhatIfEstimatorOptions(),
                                   owner.memo()),
               "another machine class");
  simvm::PhysicalMachine four_dims = tb_.machine();
  four_dims.resources = &simvm::ResourceModel::CpuMemIoNet();
  EXPECT_DEATH(WhatIfCostEstimator(four_dims, tenants_,
                                   WhatIfEstimatorOptions(), owner.memo()),
               "another machine class");
  // Fields the values do not read may differ (the calibration, which is
  // part of every statement class, carries the machine's speeds).
  simvm::PhysicalMachine renamed = tb_.machine();
  renamed.name = "renamed";
  renamed.cpu_ops_per_sec *= 2.0;
  WhatIfCostEstimator attached(renamed, tenants_, WhatIfEstimatorOptions(),
                               owner.memo());
  EXPECT_EQ(attached.memo(), owner.memo());
}

TEST(ThreadPoolOrderTest, ParallelForOrderCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<size_t> order = {4, 2, 0, 1, 3};  // heaviest-first order
  std::vector<std::atomic<int>> counts(5);
  pool.ParallelForOrder(order, [&](size_t i) {
    counts[i].fetch_add(1);
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace vdba::advisor
