// OptimizeGrid must be a bit-identical drop-in for per-member Optimize:
// same plan signatures, same native costs (exact double equality), same
// activities — for both cost-model flavors, across parameter grids that
// mix memory-context groups.
#include "simdb/optimizer.h"

#include <gtest/gtest.h>

#include <vector>

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

void ExpectIdentical(const OptimizeResult& grid, const OptimizeResult& seq,
                     const char* ctx, size_t k) {
  // Exact equality on purpose: the grid contract is bit-identity, not
  // tolerance. Signatures pin the plan choice; activity fields pin the
  // shared walk; native_cost pins the batch pricer.
  EXPECT_EQ(grid.signature, seq.signature) << ctx << " member " << k;
  EXPECT_EQ(grid.native_cost, seq.native_cost) << ctx << " member " << k;
  EXPECT_EQ(grid.activity.seq_pages, seq.activity.seq_pages) << ctx << k;
  EXPECT_EQ(grid.activity.rand_pages, seq.activity.rand_pages) << ctx << k;
  EXPECT_EQ(grid.activity.spill_pages, seq.activity.spill_pages) << ctx << k;
  EXPECT_EQ(grid.activity.write_pages, seq.activity.write_pages) << ctx << k;
  EXPECT_EQ(grid.activity.tuples, seq.activity.tuples) << ctx << k;
  EXPECT_EQ(grid.activity.op_evals, seq.activity.op_evals) << ctx << k;
  EXPECT_EQ(grid.activity.index_tuples, seq.activity.index_tuples)
      << ctx << k;
  EXPECT_EQ(grid.activity.net_pages, seq.activity.net_pages) << ctx << k;
  ASSERT_NE(grid.plan, nullptr) << ctx << k;
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
        OptimizeResult seq = opt.Optimize(q, sweep[k]);
        ExpectIdentical(grid[k], seq, ctx, k);
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
  ExpectIdentical(grid[0], opt.Optimize(q, one[0]), "single", 0);
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
