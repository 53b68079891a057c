#include "simdb/optimizer.h"

#include <gtest/gtest.h>

#include "simdb/cost_model_db2.h"
#include "simdb/cost_model_pg.h"
#include "workload/tpch.h"

namespace vdba::simdb {
namespace {

using workload::MakeTpchDatabase;
using workload::TpchQuery;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : db_(MakeTpchDatabase(1.0)) {}
  workload::TpchDatabase db_;
  PgCostModel pg_model_;
  Db2CostModel db2_model_;
};

TEST_F(OptimizerTest, SingleRelationPrefersIndexForSelectiveScan) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q;
  RelationRef r;
  r.table = db_.tables.orders;
  r.filter_selectivity = 0.001;
  r.index_column = "o_orderkey";
  q.relations = {r};
  OptimizeResult res = opt.Optimize(q, PgParams{});
  EXPECT_NE(res.signature.find("IXS"), std::string::npos);
}

TEST_F(OptimizerTest, SingleRelationPrefersSeqScanForFullScan) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q;
  RelationRef r;
  r.table = db_.tables.orders;
  r.filter_selectivity = 1.0;
  r.index_column = "o_orderkey";
  q.relations = {r};
  OptimizeResult res = opt.Optimize(q, PgParams{});
  EXPECT_NE(res.signature.find("SS"), std::string::npos);
  EXPECT_EQ(res.signature.find("IXS"), std::string::npos);
}

TEST_F(OptimizerTest, QueryProblemAcceptsTpchAndNamesEachDefect) {
  for (int qn = 1; qn <= 22; ++qn) {
    EXPECT_EQ(QueryProblem(db_.catalog, TpchQuery(db_, qn)), "") << qn;
  }
  const QuerySpec base = TpchQuery(db_, 3);
  ASSERT_EQ(base.relations.size(), 3u);
  auto problem = [&](void (*edit)(QuerySpec*)) {
    QuerySpec q = base;
    edit(&q);
    return QueryProblem(db_.catalog, q);
  };
  auto names = [](const std::string& problem, const char* defect) {
    return problem.find(defect) != std::string::npos;
  };
  EXPECT_PRED2(names, problem([](QuerySpec* q) {
                 q->relations.clear();
                 q->joins.clear();
               }),
               "has no relation");
  EXPECT_PRED2(names, problem([](QuerySpec* q) {
                 q->relations.resize(kMaxRelations + 1, q->relations[0]);
               }),
               "more than 12");
  EXPECT_PRED2(names,
               problem([](QuerySpec* q) { q->relations[2].table = 99; }),
               "outside the catalog");
  EXPECT_PRED2(names,
               problem([](QuerySpec* q) { q->joins[0].right_rel = 3; }),
               "outside its 3");
  EXPECT_PRED2(names, problem([](QuerySpec* q) { q->joins.pop_back(); }),
               "disconnected");
}

TEST_F(OptimizerTest, AllTpchQueriesProducePlans) {
  Optimizer pg(db_.catalog, pg_model_);
  Optimizer db2(db_.catalog, db2_model_);
  for (int qn = 1; qn <= 22; ++qn) {
    QuerySpec q = TpchQuery(db_, qn);
    OptimizeResult rp = pg.Optimize(q, PgParams{});
    EXPECT_GT(rp.native_cost, 0.0) << q.name;
    EXPECT_NE(rp.plan, nullptr) << q.name;
    OptimizeResult rd = db2.Optimize(q, Db2Params{});
    EXPECT_GT(rd.native_cost, 0.0) << q.name;
  }
}

TEST_F(OptimizerTest, WhatIfCostRespondsToCpuParameters) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q = TpchQuery(db_, 1);  // CPU-bound scan+aggregate
  PgParams cheap_cpu;
  PgParams dear_cpu;
  dear_cpu.cpu_tuple_cost *= 10.0;
  dear_cpu.cpu_operator_cost *= 10.0;
  double c1 = opt.Optimize(q, cheap_cpu).native_cost;
  double c2 = opt.Optimize(q, dear_cpu).native_cost;
  EXPECT_GT(c2, c1 * 3.0);
}

TEST_F(OptimizerTest, Q17UsesIndexNestedLoops) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q = TpchQuery(db_, 17);
  OptimizeResult res = opt.Optimize(q, MemoryPolicy::ApplyPg(PgParams{}, 512));
  EXPECT_NE(res.signature.find("INLJ"), std::string::npos);
  // Activity is dominated by random I/O, not CPU events.
  EXPECT_GT(res.activity.rand_pages, 100.0);
  EXPECT_LT(res.activity.tuples, 3e5);  // dominated by the part scan
}

TEST_F(OptimizerTest, Q18PlanChangesWithDb2Sortheap) {
  Optimizer opt(db_.catalog, db2_model_);
  QuerySpec q = TpchQuery(db_, 18);
  Db2Params small_mem = MemoryPolicy::ApplyDb2(Db2Params{}, 300.0);
  Db2Params big_mem = MemoryPolicy::ApplyDb2(Db2Params{}, 4096.0);
  OptimizeResult r_small = opt.Optimize(q, small_mem);
  OptimizeResult r_big = opt.Optimize(q, big_mem);
  // The plan signature (spill states) must change across memory levels —
  // this is what defines the A_ij refinement intervals.
  EXPECT_NE(r_small.signature, r_big.signature);
  EXPECT_GT(r_small.native_cost, r_big.native_cost);
}

TEST_F(OptimizerTest, MoreMemoryNeverRaisesEstimatedCost) {
  Optimizer opt(db_.catalog, db2_model_);
  QuerySpec q = TpchQuery(db_, 7);
  double prev = 1e300;
  for (double mem_mb : {300.0, 600.0, 1200.0, 2400.0, 4800.0}) {
    double cost =
        opt.Optimize(q, MemoryPolicy::ApplyDb2(Db2Params{}, mem_mb))
            .native_cost;
    EXPECT_LE(cost, prev * 1.0001) << "memory " << mem_mb;
    prev = cost;
  }
}

TEST_F(OptimizerTest, FlavorMismatchIsFatal) {
  Optimizer opt(db_.catalog, pg_model_);
  QuerySpec q = TpchQuery(db_, 1);
  EXPECT_DEATH((void)opt.Optimize(q, Db2Params{}), "");
}

TEST_F(OptimizerTest, DeterministicResults) {
  Optimizer opt(db_.catalog, db2_model_);
  QuerySpec q = TpchQuery(db_, 8);  // widest join
  OptimizeResult a = opt.Optimize(q, Db2Params{});
  OptimizeResult b = opt.Optimize(q, Db2Params{});
  EXPECT_EQ(a.native_cost, b.native_cost);
  EXPECT_EQ(a.signature, b.signature);
}

}  // namespace
}  // namespace vdba::simdb
