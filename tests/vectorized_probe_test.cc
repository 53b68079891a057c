// The vectorized probe path (EstimateMany routing uncached probes through
// OptimizeGrid) must be indistinguishable from the CostEstimator
// contract's own reference, an in-order EstimateSeconds loop: same
// estimates (exact double equality), same observation logs, same
// optimizer-call / cache-hit counters — at M = 4 with both engine flavors
// in the mix. Also: the sharded cache must serve concurrent readers
// safely.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "advisor/cost_estimator.h"
#include "scenario/scenario.h"
#include "simvm/resource_vector.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

class VectorizedProbeTest : public ::testing::Test {
 protected:
  VectorizedProbeTest() {
    scenario::TestbedOptions topts;
    topts.machine.resources = &simvm::ResourceModel::CpuMemIoNet();
    topts.with_sf10 = false;
    topts.with_tpcc = false;
    tb_ = std::make_unique<scenario::Testbed>(topts);

    // Both flavors, heterogeneous workload sizes (so tenant grouping and
    // per-statement task fan-out have real structure).
    simdb::Workload w1;
    for (int qn : {1, 6, 18, 21}) {
      w1.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), qn), 2.0);
    }
    simdb::Workload w2;
    w2.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), 17), 3.0);
    simdb::Workload w3;
    for (int qn : {3, 8, 12}) {
      w3.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), qn), 1.5);
    }
    tenants_.push_back(tb_->MakeTenant(tb_->pg_sf1(), w1));
    tenants_.push_back(tb_->MakeTenant(tb_->db2_sf1(), w2));
    tenants_.push_back(tb_->MakeTenant(tb_->pg_sf1(), w3));
  }

  /// A 4-dimensional probe frontier: memory varies (several grid groups)
  /// and cpu/io/net vary (many members per group), plus duplicates.
  std::vector<TenantAllocation> Frontier() const {
    std::vector<TenantAllocation> batch;
    for (double mem : {0.25, 0.5, 0.75}) {
      for (double c : {0.2, 0.5, 0.8}) {
        for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
          batch.push_back({t, {c, mem, 0.5, 0.5}});
          batch.push_back({t, {0.5, mem, c, 1.0}});
          batch.push_back({t, {0.5, mem, 0.5, c}});
        }
      }
    }
    batch.push_back({0, {0.2, 0.25, 0.5, 0.5}});  // duplicate: cache hit
    batch.push_back({2, {0.5, 0.75, 0.5, 0.8}});  // duplicate: cache hit
    return batch;
  }

  WhatIfCostEstimator MakeEstimator(int threads = 1) const {
    WhatIfEstimatorOptions opts;
    opts.batch_threads = threads;
    return WhatIfCostEstimator(tb_->machine(), tenants_, opts);
  }

  std::unique_ptr<scenario::Testbed> tb_;
  std::vector<Tenant> tenants_;
};

TEST_F(VectorizedProbeTest, MatchesScalarPathBitwise) {
  std::vector<TenantAllocation> frontier = Frontier();

  WhatIfCostEstimator scalar = MakeEstimator();
  std::vector<double> want;
  for (const TenantAllocation& item : frontier) {
    want.push_back(scalar.EstimateSeconds(item.tenant, item.r));
  }

  for (int threads : {1, 3}) {
    WhatIfCostEstimator vec = MakeEstimator(threads);
    std::vector<double> got = vec.EstimateMany(frontier);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "threads=" << threads << " probe " << i;
    }
    EXPECT_EQ(vec.optimizer_calls(), scalar.optimizer_calls());
    EXPECT_EQ(vec.cache_hits(), scalar.cache_hits());
    for (int t = 0; t < vec.num_tenants(); ++t) {
      ASSERT_EQ(vec.observations(t).size(), scalar.observations(t).size())
          << "tenant " << t;
      for (size_t i = 0; i < scalar.observations(t).size(); ++i) {
        EXPECT_EQ(vec.observations(t)[i].allocation,
                  scalar.observations(t)[i].allocation);
        EXPECT_EQ(vec.observations(t)[i].est_seconds,
                  scalar.observations(t)[i].est_seconds);
        EXPECT_EQ(vec.observations(t)[i].plan_signature,
                  scalar.observations(t)[i].plan_signature);
      }
    }
  }
}

TEST_F(VectorizedProbeTest, EstimateSecondsAgreesWithBatchedValues) {
  // Interleaving the scalar entry point with batched calls must hit the
  // same cache entries, not recompute.
  std::vector<TenantAllocation> frontier = Frontier();
  WhatIfCostEstimator est = MakeEstimator();
  std::vector<double> batch = est.EstimateMany(frontier);
  long calls_after_batch = est.optimizer_calls();
  for (size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(est.EstimateSeconds(frontier[i].tenant, frontier[i].r),
              batch[i])
        << i;
  }
  EXPECT_EQ(est.optimizer_calls(), calls_after_batch);  // all cache hits
}

TEST_F(VectorizedProbeTest, ConcurrentReadersAndWritersAreSafe) {
  // Hammer one shared estimator from several threads with overlapping
  // frontiers: every thread must read consistent values, and the final
  // state must match a single-threaded run's estimates.
  std::vector<TenantAllocation> frontier = Frontier();
  WhatIfCostEstimator reference = MakeEstimator();
  std::vector<double> want = reference.EstimateMany(frontier);

  WhatIfCostEstimator shared = MakeEstimator();
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        // Half the threads go through the batched door, half through the
        // scalar one, all concurrently.
        if (w % 2 == 0) {
          got[static_cast<size_t>(w)] = shared.EstimateMany(frontier);
        } else {
          std::vector<double>& out = got[static_cast<size_t>(w)];
          out.reserve(frontier.size());
          for (const TenantAllocation& item : frontier) {
            out.push_back(shared.EstimateSeconds(item.tenant, item.r));
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[static_cast<size_t>(w)].size(), want.size()) << w;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[static_cast<size_t>(w)][i], want[i])
          << "worker " << w << " probe " << i;
    }
  }
  // Observation logs hold each distinct probe exactly once regardless of
  // which thread won the insert race.
  for (int t = 0; t < shared.num_tenants(); ++t) {
    EXPECT_EQ(shared.observations(t).size(), reference.observations(t).size())
        << "tenant " << t;
  }
}

TEST_F(VectorizedProbeTest, InvalidateTenantIsSafeUnderDisjointReaders) {
  // The sharded-service contract (AdvisorService drift repair):
  // InvalidateTenant(t) and SetWorkload(t) may run concurrently with
  // estimation of tenants != t. Readers hammer tenants 0 and 1 while a
  // writer repeatedly invalidates, re-weights and replaces tenant 2's
  // workload and re-primes it; every reader result must be bit-identical
  // to a quiescent run — a change to a DISJOINT tenant can cost
  // recomputation, never a different answer. The replacement shares Q1
  // with tenant 0 and brings Q5, which no other tenant runs, so the
  // writer also moves shared statement classes and drops Q5's memo
  // entries each time it restores the original workload.
  std::vector<TenantAllocation> frontier;
  for (const TenantAllocation& item : Frontier()) {
    if (item.tenant != 2) frontier.push_back(item);
  }
  WhatIfCostEstimator reference = MakeEstimator();
  std::vector<double> want = reference.EstimateMany(frontier);

  WhatIfCostEstimator shared = MakeEstimator();
  constexpr int kReaders = 3;
  constexpr int kRounds = 8;
  std::vector<std::vector<std::vector<double>>> got(kReaders);
  {
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    const simdb::Workload original = tenants_[2].workload;
    simdb::Workload reweighted = original;
    for (simdb::WorkloadStatement& stmt : reweighted.statements) {
      stmt.frequency *= 4.0;
    }
    simdb::Workload replaced;
    replaced.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), 1), 1.0);
    replaced.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), 5), 2.0);
    threads.emplace_back([&] {
      // Writer: estimate tenant 2 (fills its cache/observations), then
      // invalidate it, change its frequencies, then its statements, in a
      // tight loop until every reader finished.
      const simvm::ResourceVector probe{0.5, 0.5, 0.5, 0.5};
      while (!stop.load()) {
        shared.EstimateSeconds(2, probe);
        shared.InvalidateTenant(2);
        shared.SetWorkload(2, reweighted);
        shared.EstimateSeconds(2, probe);
        shared.SetWorkload(2, replaced);
        shared.EstimateSeconds(2, probe);
        shared.SetWorkload(2, original);
      }
    });
    std::vector<std::thread> readers;
    for (int w = 0; w < kReaders; ++w) {
      readers.emplace_back([&, w] {
        for (int round = 0; round < kRounds; ++round) {
          got[static_cast<size_t>(w)].push_back(
              shared.EstimateMany(frontier));
        }
      });
    }
    for (std::thread& t : readers) t.join();
    stop.store(true);
    threads.front().join();
  }
  for (int w = 0; w < kReaders; ++w) {
    ASSERT_EQ(got[static_cast<size_t>(w)].size(),
              static_cast<size_t>(kRounds));
    for (int round = 0; round < kRounds; ++round) {
      const std::vector<double>& run =
          got[static_cast<size_t>(w)][static_cast<size_t>(round)];
      ASSERT_EQ(run.size(), want.size()) << w;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(run[i], want[i])
            << "reader " << w << " round " << round << " probe " << i;
      }
    }
  }
  // Tenants 0/1 kept their full observation logs; tenant 2's ends empty
  // or freshly re-primed, never corrupted.
  for (int t : {0, 1}) {
    EXPECT_EQ(shared.observations(t).size(), reference.observations(t).size())
        << "tenant " << t;
  }
}

TEST_F(VectorizedProbeTest, EstimatorsSharingAMemoRaceSafely) {
  // Two estimators price through one statement memo from two threads
  // while a third thread keeps changing the first estimator's tenant 2,
  // which adds classes and drops them again (and with them allocations
  // the other batches may be about to publish). Every estimate must equal
  // a private-memo estimator's.
  std::vector<TenantAllocation> frontier;
  for (const TenantAllocation& item : Frontier()) {
    if (item.tenant != 2) frontier.push_back(item);
  }
  // The second estimator shares tenant 0's statements and brings Q5.
  simdb::Workload other;
  for (int qn : {1, 5, 18}) {
    other.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), qn), 1.0);
  }
  const std::vector<Tenant> second_tenants = {
      tb_->MakeTenant(tb_->pg_sf1(), other), tenants_[1]};
  WhatIfEstimatorOptions opts;
  opts.batch_threads = 1;
  const std::vector<double> want_first =
      MakeEstimator().EstimateMany(frontier);
  const std::vector<double> want_second =
      WhatIfCostEstimator(tb_->machine(), second_tenants, opts)
          .EstimateMany(frontier);

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    WhatIfCostEstimator first = MakeEstimator();
    WhatIfCostEstimator second(tb_->machine(), second_tenants, opts,
                               first.memo());
    std::vector<double> got_first, got_second;
    std::atomic<int> running{2};
    std::thread writer([&] {
      const simdb::Workload original = tenants_[2].workload;
      simdb::Workload replaced;
      replaced.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), 10), 1.0);
      replaced.AddStatement(workload::TpchQuery(tb_->tpch_sf1(), 18), 2.0);
      const simvm::ResourceVector probe{0.5, 0.5, 0.5, 0.5};
      while (running.load() > 0) {
        first.SetWorkload(2, replaced);
        first.EstimateSeconds(2, probe);
        first.SetWorkload(2, original);
        first.EstimateSeconds(2, probe);
      }
    });
    std::thread a([&] {
      got_first = first.EstimateMany(frontier);
      --running;
    });
    std::thread b([&] {
      got_second = second.EstimateMany(frontier);
      --running;
    });
    a.join();
    b.join();
    writer.join();
    EXPECT_EQ(got_first, want_first);
    EXPECT_EQ(got_second, want_second);
  }
}

}  // namespace
}  // namespace vdba::advisor
