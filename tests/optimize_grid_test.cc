// One plan search, two entry points: every OptimizeGrid member and every
// Optimize result must equal the scalar DP in tests/plan_search_oracle.h
// bit for bit (plan signature, native cost with exact double equality,
// every activity field, plan shape), for both cost-model flavors, across
// parameter grids that mix memory-context groups.
#include "simdb/optimizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "plan_search_oracle.h"
#include "simdb/cost_model_db2.h"
#include "simdb/cost_model_pg.h"
#include "simdb/engine.h"
#include "workload/tpch.h"

namespace vdba::simdb {
namespace {

using workload::MakeTpchDatabase;
using workload::TpchQuery;

/// A what-if sweep shaped like the advisor's: every combination of a few
/// cpu/io/net-driven values and a few memory settings (so the grid spans
/// several memory-context groups with many members each).
std::vector<EngineParams> PgSweep() {
  std::vector<EngineParams> sweep;
  for (double work_mem : {5.0, 23.0, 64.0}) {
    for (double rpc : {1.5, 4.0, 9.0, 20.0}) {
      for (double net : {0.1, 0.5, 2.0}) {
        PgParams p;
        p.work_mem_mb = work_mem;
        p.random_page_cost = rpc;
        p.cpu_tuple_cost = 0.01 * rpc / 4.0;
        p.net_page_cost = net;
        sweep.push_back(p);
      }
    }
  }
  return sweep;
}

std::vector<EngineParams> Db2Sweep() {
  std::vector<EngineParams> sweep;
  for (double sortheap : {10.0, 40.0, 120.0}) {
    for (double cpuspeed : {2.0e-7, 4.0e-7, 8.0e-7}) {
      for (double overhead : {2.0, 6.0, 12.0}) {
        Db2Params p;
        p.sortheap_mb = sortheap;
        p.cpuspeed_ms_per_instr = cpuspeed;
        p.overhead_ms = overhead;
        sweep.push_back(p);
      }
    }
  }
  return sweep;
}

void ExpectIdentical(const OptimizeResult& got, const OptimizeResult& want,
                     const char* ctx, size_t k) {
  // Exact equality on purpose: the contract is bit-identity, not
  // tolerance. Signatures pin the plan choice; activity fields pin the
  // shared walk; native_cost pins the batch pricer.
  EXPECT_EQ(got.signature, want.signature) << ctx << " member " << k;
  EXPECT_EQ(got.native_cost, want.native_cost) << ctx << " member " << k;
  const Activity& a = got.activity;
  const Activity& b = want.activity;
  EXPECT_EQ(a.seq_pages, b.seq_pages) << ctx << " member " << k;
  EXPECT_EQ(a.rand_pages, b.rand_pages) << ctx << " member " << k;
  EXPECT_EQ(a.spill_pages, b.spill_pages) << ctx << " member " << k;
  EXPECT_EQ(a.write_pages, b.write_pages) << ctx << " member " << k;
  EXPECT_EQ(a.log_bytes, b.log_bytes) << ctx << " member " << k;
  EXPECT_EQ(a.tuples, b.tuples) << ctx << " member " << k;
  EXPECT_EQ(a.op_evals, b.op_evals) << ctx << " member " << k;
  EXPECT_EQ(a.index_tuples, b.index_tuples) << ctx << " member " << k;
  EXPECT_EQ(a.rows_returned, b.rows_returned) << ctx << " member " << k;
  EXPECT_EQ(a.update_rows, b.update_rows) << ctx << " member " << k;
  EXPECT_EQ(a.net_pages, b.net_pages) << ctx << " member " << k;
  ASSERT_NE(got.plan, nullptr) << ctx << " member " << k;
}

/// The returned plan is the one the result describes: re-walking it under
/// the member's estimation context reproduces the signature.
void ExpectPlanMatchesSignature(const Optimizer& opt,
                                const OptimizeResult& res,
                                const EngineParams& params, const char* ctx,
                                size_t k) {
  ASSERT_NE(res.plan, nullptr) << ctx << " member " << k;
  std::string signature;
  ComputeActivity(opt.catalog(), *res.plan,
                  opt.cost_model().EstimationContext(params), &signature);
  EXPECT_EQ(signature, res.signature) << ctx << " member " << k;
}

/// Same plan shape node by node. These queries have exact cost ties
/// between join candidates whose signatures, costs and activities also
/// agree, so only the tree shows which candidate won the tie.
void ExpectSameTree(const PlanNode* got, const PlanNode* want,
                    const char* ctx, size_t k) {
  ASSERT_EQ(got == nullptr, want == nullptr) << ctx << " member " << k;
  if (got == nullptr) return;
  EXPECT_EQ(static_cast<int>(got->op), static_cast<int>(want->op))
      << ctx << " member " << k;
  EXPECT_EQ(got->table, want->table) << ctx << " member " << k;
  EXPECT_EQ(got->index, want->index) << ctx << " member " << k;
  EXPECT_EQ(got->inner_index, want->inner_index) << ctx << " member " << k;
  ExpectSameTree(got->left, want->left, ctx, k);
  ExpectSameTree(got->right, want->right, ctx, k);
}

OptimizeResult Oracle(const Optimizer& opt, const QuerySpec& q,
                      const EngineParams& params) {
  return oracle::ScalarOptimize(opt.catalog(), opt.cost_model(), q, params);
}

class OptimizeGridTest : public ::testing::Test {
 protected:
  OptimizeGridTest() : db_(MakeTpchDatabase(1.0)) {}

  void CheckQueries(const Optimizer& opt,
                    const std::vector<EngineParams>& sweep, const char* ctx) {
    // Q18 (CPU-bound 3-way), Q21 (I/O-bound 4-way), Q8 (widest join), Q1
    // (single-relation aggregate): the shapes that exercise every stage.
    for (int qn : {1, 8, 18, 21}) {
      QuerySpec q = TpchQuery(db_, qn);
      std::vector<OptimizeResult> grid = opt.OptimizeGrid(q, sweep);
      ASSERT_EQ(grid.size(), sweep.size()) << ctx << " " << q.name;
      for (size_t k = 0; k < sweep.size(); ++k) {
        const OptimizeResult want = Oracle(opt, q, sweep[k]);
        ExpectIdentical(grid[k], want, ctx, k);
        ExpectSameTree(grid[k].plan.get(), want.plan.get(), ctx, k);
        ExpectPlanMatchesSignature(opt, grid[k], sweep[k], ctx, k);
        const OptimizeResult single = opt.Optimize(q, sweep[k]);
        ExpectIdentical(single, want, ctx, k);
        ExpectSameTree(single.plan.get(), want.plan.get(), ctx, k);
        ExpectPlanMatchesSignature(opt, single, sweep[k], ctx, k);
      }
    }
  }

  workload::TpchDatabase db_;
  PgCostModel pg_model_;
  Db2CostModel db2_model_;
};

TEST_F(OptimizeGridTest, PgGridMatchesSequentialBitwise) {
  Optimizer opt(db_.catalog, pg_model_);
  CheckQueries(opt, PgSweep(), "pg");
}

TEST_F(OptimizeGridTest, Db2GridMatchesSequentialBitwise) {
  Optimizer opt(db_.catalog, db2_model_);
  CheckQueries(opt, Db2Sweep(), "db2");
}

TEST_F(OptimizeGridTest, SingleMemberGridEqualsScalar) {
  Optimizer opt(db_.catalog, db2_model_);
  QuerySpec q = TpchQuery(db_, 18);
  std::vector<EngineParams> one = {Db2Params{}};
  std::vector<OptimizeResult> grid = opt.OptimizeGrid(q, one);
  ASSERT_EQ(grid.size(), 1u);
  const OptimizeResult want = Oracle(opt, q, one[0]);
  ExpectIdentical(grid[0], want, "single", 0);
  ExpectIdentical(opt.Optimize(q, one[0]), want, "single", 0);
}

TEST_F(OptimizeGridTest, EmptyGridReturnsEmpty) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q = TpchQuery(db_, 1);
  EXPECT_TRUE(opt.OptimizeGrid(q, {}).empty());
}

TEST_F(OptimizeGridTest, EngineGridEntryPointDelegates) {
  DbEngine pg("pg", EngineFlavor::kPostgres, db_.catalog);
  QuerySpec q = TpchQuery(db_, 21);
  std::vector<EngineParams> sweep = PgSweep();
  std::vector<OptimizeResult> grid = pg.WhatIfOptimizeGrid(q, sweep);
  ASSERT_EQ(grid.size(), sweep.size());
  for (size_t k = 0; k < sweep.size(); ++k) {
    ExpectIdentical(grid[k], pg.WhatIfOptimize(q, sweep[k]), "engine", k);
  }
}

}  // namespace
}  // namespace vdba::simdb
