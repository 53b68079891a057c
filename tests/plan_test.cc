#include "simdb/plan.h"

#include <gtest/gtest.h>

#include <memory>

namespace vdba::simdb {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

Catalog MakeCatalog() {
  Catalog cat;
  TableDef t;
  t.name = "big";
  t.rows = 1000000;
  t.row_width_bytes = 100;
  cat.AddTable(t);
  TableDef s;
  s.name = "small";
  s.rows = 10000;
  s.row_width_bytes = 50;
  cat.AddTable(s);
  IndexDef idx{.name = "big_pk", .table = 0, .column = "pk", .clustered = true};
  cat.AddIndex(idx);
  return cat;
}

PlanNode* MakeScan(PlanArena* arena, const Catalog& cat, TableId table,
                   double sel = 1.0, int npreds = 0) {
  PlanNode* node = arena->New();
  node->op = PlanOp::kSeqScan;
  node->table = table;
  node->scan_selectivity = sel;
  node->num_predicates = npreds;
  node->output_rows = cat.table(table).rows * sel;
  node->output_width_bytes = cat.table(table).row_width_bytes * 0.5;
  return node;
}

MemoryContext BigBuffer() {
  MemoryContext mem;
  mem.buffer_bytes = 1e12;  // everything cached
  mem.work_mem_bytes = 64 * kMb;
  return mem;
}

TEST(PlanActivityTest, SeqScanCountsTuplesAndPredicates) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* scan = MakeScan(&arena, cat, 0, 0.5, 3);
  MemoryContext mem;
  mem.buffer_bytes = 0.0;  // fully cold
  Activity act = ComputeActivity(cat, *scan, mem, nullptr);
  EXPECT_NEAR(act.tuples, 1000000.0, 1.0);
  EXPECT_NEAR(act.op_evals, 3000000.0, 1.0);
  EXPECT_NEAR(act.seq_pages, cat.table(0).Pages(), 1.0);
  EXPECT_EQ(act.rand_pages, 0.0);
}

TEST(PlanActivityTest, BufferResidencyDiscountsIo) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* scan = MakeScan(&arena, cat, 0);
  MemoryContext cold;
  cold.buffer_bytes = 0.0;
  MemoryContext warm = BigBuffer();
  Activity cold_act = ComputeActivity(cat, *scan, cold, nullptr);
  Activity warm_act = ComputeActivity(cat, *scan, warm, nullptr);
  EXPECT_GT(cold_act.seq_pages, warm_act.seq_pages * 10.0);
  // Warm is floored at 2% (metadata / churn).
  EXPECT_NEAR(warm_act.seq_pages, cat.table(0).Pages() * 0.02, 1.0);
}

TEST(PlanActivityTest, SortSpillsBelowMemoryThreshold) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* sort = arena.New();
  sort->op = PlanOp::kSort;
  sort->left = MakeScan(&arena, cat, 0);  // 1M rows x 50B = 50 MB to sort
  sort->output_rows = sort->left->output_rows;
  sort->output_width_bytes = sort->left->output_width_bytes;

  MemoryContext big = BigBuffer();  // 64 MB work_mem: in-memory
  std::string sig_big;
  Activity a_big = ComputeActivity(cat, *sort, big, &sig_big);
  EXPECT_EQ(a_big.spill_pages, 0.0);
  EXPECT_NE(sig_big.find("Sort(mem"), std::string::npos);

  MemoryContext small = BigBuffer();
  small.work_mem_bytes = 5 * kMb;  // spills
  std::string sig_small;
  Activity a_small = ComputeActivity(cat, *sort, small, &sig_small);
  EXPECT_GT(a_small.spill_pages, 1000.0);
  EXPECT_NE(sig_small.find("Sort(p="), std::string::npos);
  EXPECT_NE(sig_big, sig_small);
}

TEST(PlanActivityTest, SortMemBoostAvoidsSpill) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* sort = arena.New();
  sort->op = PlanOp::kSort;
  sort->left = MakeScan(&arena, cat, 0);
  sort->output_rows = sort->left->output_rows;
  sort->output_width_bytes = sort->left->output_width_bytes;

  MemoryContext mem = BigBuffer();
  mem.work_mem_bytes = 20 * kMb;  // 50 MB sort would spill...
  Activity spilled = ComputeActivity(cat, *sort, mem, nullptr);
  EXPECT_GT(spilled.spill_pages, 0.0);
  mem.sort_mem_boost = 3.0;  // ...but the adaptive executor avoids it
  Activity boosted = ComputeActivity(cat, *sort, mem, nullptr);
  EXPECT_EQ(boosted.spill_pages, 0.0);
}

TEST(PlanActivityTest, ModeledSortCapLimitsEstimatedBenefit) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* sort = arena.New();
  sort->op = PlanOp::kSort;
  sort->left = MakeScan(&arena, cat, 0);
  sort->output_rows = sort->left->output_rows;
  sort->output_width_bytes = sort->left->output_width_bytes;

  MemoryContext mem = BigBuffer();
  mem.work_mem_bytes = 500 * kMb;                 // plenty of real memory
  mem.modeled_sort_mem_cap_bytes = 10 * kMb;      // the model won't see it
  Activity act = ComputeActivity(cat, *sort, mem, nullptr);
  EXPECT_GT(act.spill_pages, 0.0);  // model still predicts a spill
}

TEST(PlanActivityTest, HashJoinBatchesTrackMemory) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* join = arena.New();
  join->op = PlanOp::kHashJoin;
  join->left = MakeScan(&arena, cat, 0);   // probe
  join->right = MakeScan(&arena, cat, 1);  // build: 10000 x 25B
  join->output_rows = 1000000;
  join->output_width_bytes = 75;

  MemoryContext roomy = BigBuffer();
  std::string sig_roomy;
  Activity a1 = ComputeActivity(cat, *join, roomy, &sig_roomy);
  EXPECT_EQ(a1.spill_pages, 0.0);
  EXPECT_NE(sig_roomy.find("HJ(b=1"), std::string::npos);

  MemoryContext tight = BigBuffer();
  tight.work_mem_bytes = 0.05 * kMb;
  std::string sig_tight;
  Activity a2 = ComputeActivity(cat, *join, tight, &sig_tight);
  EXPECT_GT(a2.spill_pages, 0.0);
  EXPECT_EQ(sig_tight.find("HJ(b=1,"), std::string::npos);
}

TEST(PlanActivityTest, IndexNestLoopChargesPerProbe) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* join = arena.New();
  join->op = PlanOp::kIndexNestLoopJoin;
  join->left = MakeScan(&arena, cat, 1);   // 10000 probes
  join->right = MakeScan(&arena, cat, 0);  // inner metadata only
  join->inner_index = 0;
  join->inner_rows_per_probe = 3.0;
  join->output_rows = 30000;
  join->output_width_bytes = 75;

  MemoryContext cold;
  cold.buffer_bytes = 0.0;
  Activity act = ComputeActivity(cat, *join, cold, nullptr);
  // The inner table is NOT scanned standalone: only probe I/O appears.
  EXPECT_GT(act.rand_pages, 10000.0);  // probes x (descent + matches)
  EXPECT_NEAR(act.tuples, 10000.0 + 30000.0, 1.0);  // outer scan + matches

  // A warm cache absorbs probe I/O entirely.
  MemoryContext warm = BigBuffer();
  Activity warm_act = ComputeActivity(cat, *join, warm, nullptr);
  EXPECT_EQ(warm_act.rand_pages, 0.0);
}

TEST(PlanActivityTest, ResultNodeCountsReturnedRows) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* result = arena.New();
  result->op = PlanOp::kResult;
  result->left = MakeScan(&arena, cat, 1);
  result->output_rows = 10000;
  result->extra_ops_per_row = 2.0;
  Activity act = ComputeActivity(cat, *result, BigBuffer(), nullptr);
  EXPECT_NEAR(act.rows_returned, 10000.0, 1e-9);
  EXPECT_NEAR(act.op_evals, 20000.0, 1e-9);
}

TEST(PlanActivityTest, UpdateChargesWritesAndLog) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* update = arena.New();
  update->op = PlanOp::kUpdate;
  update->left = MakeScan(&arena, cat, 1);
  update->update.rows_modified = 100.0;
  update->update.index_touches_per_row = 2.0;
  update->update.log_bytes_per_row = 100.0;
  update->output_rows = 100;
  Activity act = ComputeActivity(cat, *update, BigBuffer(), nullptr);
  EXPECT_GT(act.write_pages, 0.0);
  EXPECT_NEAR(act.log_bytes, 10000.0, 1e-9);
  EXPECT_NEAR(act.update_rows, 100.0, 1e-9);
}

TEST(PlanActivityTest, WorkingSetCountsDistinctTables) {
  Catalog cat = MakeCatalog();
  PlanArena arena;
  PlanNode* join = arena.New();
  join->op = PlanOp::kHashJoin;
  join->left = MakeScan(&arena, cat, 0);
  join->right = MakeScan(&arena, cat, 0);  // self join: table counted once
  join->output_rows = 1;
  double ws = PlanWorkingSetBytes(cat, *join);
  EXPECT_NEAR(ws, cat.table(0).Pages() * kPageSizeBytes, 1.0);
}

TEST(PlanAdoptTest, AdoptKeepsArenaAlive) {
  Catalog cat = MakeCatalog();
  MemoryContext mem = BigBuffer();
  std::string sig_orig;
  Activity orig;
  PlanPtr adopted;
  {
    auto scratch = std::make_shared<PlanArena>();
    PlanNode* join = scratch->New();
    join->op = PlanOp::kHashJoin;
    join->left = MakeScan(scratch.get(), cat, 0, 0.5, 2);
    join->right = MakeScan(scratch.get(), cat, 1);
    join->output_rows = 1000;
    join->output_width_bytes = 75;
    orig = ComputeActivity(cat, *join, mem, &sig_orig);
    adopted = AdoptPlan(std::move(scratch), join);
  }
  // Every other owner of the arena is gone: the adopted root alone keeps
  // its nodes alive through the walk.
  EXPECT_EQ(adopted.use_count(), 1);
  std::string sig_adopted;
  Activity walked = ComputeActivity(cat, *adopted, mem, &sig_adopted);
  EXPECT_EQ(sig_orig, sig_adopted);
  EXPECT_EQ(orig.seq_pages, walked.seq_pages);
  EXPECT_EQ(orig.tuples, walked.tuples);
  EXPECT_EQ(orig.op_evals, walked.op_evals);
}

}  // namespace
}  // namespace vdba::simdb
