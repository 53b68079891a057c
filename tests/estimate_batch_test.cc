// EstimateBatch must be an exact drop-in for sequential estimation: same
// results, same cache/observation state, for every thread count.
#include <gtest/gtest.h>

#include <vector>

#include "advisor/cost_estimator.h"
#include "scenario/scenario.h"
#include "util/thread_pool.h"
#include "workload/tpch.h"

namespace vdba::advisor {
namespace {

class EstimateBatchTest : public ::testing::Test {
 protected:
  EstimateBatchTest() {
    simdb::Workload w1;
    for (int qn : {1, 6, 14, 18, 21}) {
      w1.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), qn), 2.0);
    }
    simdb::Workload w2;
    w2.AddStatement(workload::TpchQuery(tb_.tpch_sf1(), 17), 3.0);
    tenants_.push_back(tb_.MakeTenant(tb_.pg_sf1(), w1));
    tenants_.push_back(tb_.MakeTenant(tb_.db2_sf1(), w2));
  }

  static std::vector<simvm::ResourceVector> Grid() {
    std::vector<simvm::ResourceVector> grid;
    for (double c = 0.1; c <= 1.0 + 1e-9; c += 0.15) {
      for (double m = 0.1; m <= 1.0 + 1e-9; m += 0.15) {
        grid.push_back({std::min(c, 1.0), std::min(m, 1.0)});
      }
    }
    return grid;
  }

  scenario::Testbed tb_;
  std::vector<Tenant> tenants_;
};

TEST_F(EstimateBatchTest, MatchesSequentialForAnyThreadCount) {
  std::vector<simvm::ResourceVector> grid = Grid();

  // Reference: plain sequential EstimateSeconds calls.
  WhatIfCostEstimator seq(tb_.machine(), tenants_);
  std::vector<double> expected;
  for (const auto& r : grid) expected.push_back(seq.EstimateSeconds(0, r));

  for (int threads : {1, 2, 7}) {
    WhatIfEstimatorOptions opts;
    opts.batch_threads = threads;
    WhatIfCostEstimator batch(tb_.machine(), tenants_, opts);
    std::vector<double> got = batch.EstimateBatch(0, grid);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], expected[i]) << "threads=" << threads
                                            << " candidate " << i;
    }
    // Identical bookkeeping: same optimizer work, same observation log.
    EXPECT_EQ(batch.optimizer_calls(), seq.optimizer_calls())
        << "threads=" << threads;
    ASSERT_EQ(batch.observations(0).size(), seq.observations(0).size());
    for (size_t i = 0; i < seq.observations(0).size(); ++i) {
      EXPECT_EQ(batch.observations(0)[i].allocation,
                seq.observations(0)[i].allocation);
      EXPECT_DOUBLE_EQ(batch.observations(0)[i].est_seconds,
                       seq.observations(0)[i].est_seconds);
      EXPECT_EQ(batch.observations(0)[i].plan_signature,
                seq.observations(0)[i].plan_signature);
    }
  }
}

TEST_F(EstimateBatchTest, DuplicatesAndCachedEntriesCountAsHits) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  est.EstimateSeconds(1, {0.5, 0.5});
  long calls_before = est.optimizer_calls();

  std::vector<simvm::ResourceVector> batch = {
      {0.5, 0.5},  // already cached
      {0.3, 0.5},  // new
      {0.3, 0.5},  // duplicate of the new one
      {0.5, 0.5},  // cached again
  };
  std::vector<double> got = est.EstimateBatch(1, batch);
  EXPECT_DOUBLE_EQ(got[0], got[3]);
  EXPECT_DOUBLE_EQ(got[1], got[2]);
  // Exactly one uncached candidate -> one statement's optimizer calls.
  EXPECT_EQ(est.optimizer_calls() - calls_before,
            static_cast<long>(tenants_[1].workload.statements.size()));
  EXPECT_EQ(est.cache_hits(), 3);
  EXPECT_EQ(est.observations(1).size(), 2u);
}

TEST_F(EstimateBatchTest, EmptyBatchIsANoOp) {
  WhatIfCostEstimator est(tb_.machine(), tenants_);
  EXPECT_TRUE(est.EstimateBatch(0, {}).empty());
  EXPECT_EQ(est.optimizer_calls(), 0);
}

TEST_F(EstimateBatchTest, BaseClassDefaultIsSequential) {
  // A CostEstimator that overrides neither EstimateBatch nor EstimateMany
  // still estimates sequentially, through the base EstimateMany.
  class Synthetic : public CostEstimator {
   public:
    double EstimateSeconds(int, const simvm::ResourceVector& r) override {
      return 1.0 / r.cpu_share() + 2.0 / r.mem_share();
    }
    int num_tenants() const override { return 1; }
    int num_dims() const override { return 2; }
  };
  Synthetic s;
  // Distinguishable values so swapped or mis-indexed results would fail.
  std::vector<simvm::ResourceVector> batch = {{0.5, 0.5}, {0.25, 0.5}};
  std::vector<double> got = s.EstimateBatch(0, batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 6.0);
  EXPECT_DOUBLE_EQ(got[1], 8.0);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (size_t n : {0ul, 1ul, 3ul, 100ul}) {
    std::vector<int> counts(n, 0);
    std::vector<std::mutex> locks(n == 0 ? 1 : n);
    pool.ParallelFor(n, [&](size_t i) {
      std::lock_guard<std::mutex> g(locks[i]);
      ++counts[i];
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1) << i;
  }
  // The pool is reusable.
  std::atomic<int> total{0};
  pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50);
}

}  // namespace
}  // namespace vdba::advisor
