// google-benchmark micro-benchmarks for the advisor's hot paths: what-if
// optimizer calls, estimator caching (design decision D3), greedy
// enumeration, batched what-if estimation, fitted-model evaluation, and
// activity computation. main() additionally times EstimateBatch against
// sequential estimation and the what-if probe kernel (scalar vs
// arena+vectorized arms, as probes/second) and records the speedups into
// BENCH_micro_benchmarks.json via the bench_common metric hook.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/fitted_cost_model.h"
#include "bench_common.h"
#include "workload/tpch.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

namespace {

/// A what-if-heavy workload (every DSS query once) and a grid of candidate
/// allocations — the shape of one greedy iteration's estimation work.
simdb::Workload DssWorkload(const scenario::Testbed& tb) {
  simdb::Workload w;
  for (int qn : {1, 3, 4, 6, 7, 12, 14, 16, 17, 18, 21, 22}) {
    w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), qn), 1.0);
  }
  return w;
}

std::vector<simvm::ResourceVector> CandidateGrid(double step) {
  std::vector<simvm::ResourceVector> grid;
  for (double c = step; c <= 1.0 + 1e-9; c += step) {
    for (double m = step; m <= 1.0 + 1e-9; m += step) {
      grid.push_back({std::min(c, 1.0), std::min(m, 1.0)});
    }
  }
  return grid;
}

void BM_WhatIfOptimizeQ18(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::QuerySpec q = workload::TpchQuery(tb.tpch_sf1(), 18);
  simdb::EngineParams params = tb.db2_calibration().ParamsFor(0.5, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.db2_sf1().WhatIfOptimize(q, params));
  }
}
BENCHMARK(BM_WhatIfOptimizeQ18);

void BM_WhatIfOptimizeQ8WideJoin(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::QuerySpec q = workload::TpchQuery(tb.tpch_sf1(), 8);
  simdb::EngineParams params = tb.pg_calibration().ParamsFor(0.5, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.pg_sf1().WhatIfOptimize(q, params));
  }
}
BENCHMARK(BM_WhatIfOptimizeQ8WideJoin);

void BM_EstimatorCacheHit(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w;
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  advisor::WhatIfCostEstimator est(tb.machine(),
                                   {tb.MakeTenant(tb.db2_sf1(), w)});
  est.EstimateSeconds(0, {0.5, 0.5});  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateSeconds(0, {0.5, 0.5}));
  }
}
BENCHMARK(BM_EstimatorCacheHit);

void BM_GreedyEnumerationN(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  int n = static_cast<int>(state.range(0));
  std::vector<advisor::Tenant> tenants;
  for (int i = 0; i < n; ++i) {
    simdb::Workload w;
    w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 ? 18 : 21),
                   2.0 + i);
    tenants.push_back(tb.MakeTenant(tb.db2_sf1(), w));
  }
  for (auto _ : state) {
    // Fresh advisor per iteration so caching does not hide optimizer work
    // on the first run; subsequent greedy moves hit the cache (D3).
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants);
    benchmark::DoNotOptimize(adv.Recommend());
  }
}
BENCHMARK(BM_GreedyEnumerationN)->Arg(2)->Arg(4)->Arg(8);

void BM_FittedModelEval(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w;
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  advisor::WhatIfCostEstimator est(tb.machine(),
                                   {tb.MakeTenant(tb.db2_sf1(), w)});
  for (double c = 0.1; c <= 1.0; c += 0.1) {
    for (double m = 0.1; m <= 1.0; m += 0.1) {
      est.EstimateSeconds(0, {c, m});
    }
  }
  advisor::FittedCostModel model =
      advisor::FittedCostModel::FromObservations(est.observations(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Eval({0.45, 0.55}));
  }
}
BENCHMARK(BM_FittedModelEval);

void BM_ComputeActivityQ18(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::QuerySpec q = workload::TpchQuery(tb.tpch_sf1(), 18);
  simdb::EngineParams params = tb.db2_calibration().ParamsFor(0.5, 4096);
  simdb::OptimizeResult opt = tb.db2_sf1().WhatIfOptimize(q, params);
  simdb::MemoryContext mem =
      tb.db2_sf1().cost_model().EstimationContext(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simdb::ComputeActivity(
        tb.db2_sf1().catalog(), *opt.plan, mem, nullptr));
  }
}
BENCHMARK(BM_ComputeActivityQ18);

/// The vectorized probe kernel end-to-end: one greedy-iteration-shaped
/// frontier of uncached probes through EstimateMany (arena + grid path).
/// This is the nightly perf-stat profile target
/// (--benchmark_filter=BM_WhatIfProbeKernel).
void BM_WhatIfProbeKernel(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w = DssWorkload(tb);
  std::vector<simvm::ResourceVector> grid = CandidateGrid(0.1);
  std::vector<advisor::TenantAllocation> frontier;
  frontier.reserve(grid.size());
  for (const auto& r : grid) frontier.push_back({0, r});
  advisor::WhatIfEstimatorOptions opts;
  opts.batch_threads = 1;
  for (auto _ : state) {
    // Fresh estimator per iteration: every probe is a real optimizer round
    // trip through the grid kernel, not a cache hit.
    advisor::WhatIfCostEstimator est(
        tb.machine(), {tb.MakeTenant(tb.pg_sf1(), w)}, opts);
    benchmark::DoNotOptimize(est.EstimateMany(frontier));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frontier.size()));
}
BENCHMARK(BM_WhatIfProbeKernel)->Unit(benchmark::kMillisecond);

void BM_TrueWorkloadSeconds(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w;
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 5.0);
  w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.hypervisor()->TrueWorkloadSeconds(
        tb.db2_sf1(), w, {0.5, 0.25}));
  }
}
BENCHMARK(BM_TrueWorkloadSeconds);

void BM_EstimateSequential(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w = DssWorkload(tb);
  std::vector<simvm::ResourceVector> grid = CandidateGrid(0.1);
  for (auto _ : state) {
    // Fresh estimator per iteration: only cache misses do real work.
    advisor::WhatIfCostEstimator est(tb.machine(),
                                     {tb.MakeTenant(tb.pg_sf1(), w)});
    for (const auto& r : grid) {
      benchmark::DoNotOptimize(est.EstimateSeconds(0, r));
    }
  }
}
BENCHMARK(BM_EstimateSequential)->Unit(benchmark::kMillisecond);

void BM_EstimateMany(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  int n = static_cast<int>(state.range(0));
  std::vector<advisor::Tenant> tenants;
  for (int i = 0; i < n; ++i) {
    simdb::Workload w;
    w.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 ? 18 : 21),
                   1.0 + i);
    tenants.push_back(
        tb.MakeTenant(i % 2 ? tb.db2_sf1() : tb.pg_sf1(), w));
  }
  // The shape of one greedy iteration: every tenant probed at a handful
  // of candidate allocations, all in one tenant-tagged batch.
  std::vector<advisor::TenantAllocation> frontier;
  for (int i = 0; i < n; ++i) {
    for (double c = 0.1; c <= 1.0 + 1e-9; c += 0.1) {
      frontier.push_back({i, {std::min(c, 1.0), 0.5}});
      frontier.push_back({i, {0.5, std::min(c, 1.0)}});
    }
  }
  for (auto _ : state) {
    advisor::WhatIfCostEstimator est(tb.machine(), tenants);
    benchmark::DoNotOptimize(est.EstimateMany(frontier));
  }
}
BENCHMARK(BM_EstimateMany)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_EstimateBatch(benchmark::State& state) {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w = DssWorkload(tb);
  std::vector<simvm::ResourceVector> grid = CandidateGrid(0.1);
  advisor::WhatIfEstimatorOptions opts;
  // Note: the calling thread works alongside the pool, so batch_threads=1
  // still computes 2-way parallel; BM_EstimateSequential is the 1-thread
  // baseline.
  opts.batch_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    advisor::WhatIfCostEstimator est(
        tb.machine(), {tb.MakeTenant(tb.pg_sf1(), w)}, opts);
    benchmark::DoNotOptimize(est.EstimateBatch(0, grid));
  }
}
BENCHMARK(BM_EstimateBatch)->Arg(0)->Unit(benchmark::kMillisecond);

/// Times one greedy-shaped probe frontier through the what-if hot path two
/// ways — probe-at-a-time ("scalar": a one-member grid search per probe
/// and statement), and batched through EstimateMany (one grid search per
/// statement over every probe, on arena-pooled plan nodes) — and records
/// probes/second per arm plus the batched speedup over scalar. Both arms
/// must return bit-identical estimates.
void RecordWhatIfProbeThroughput() {
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w = DssWorkload(tb);
  std::vector<simvm::ResourceVector> grid = CandidateGrid(0.1);
  std::vector<advisor::TenantAllocation> frontier;
  frontier.reserve(grid.size());
  for (const auto& r : grid) frontier.push_back({0, r});

  // Each arm builds a fresh estimator (all probes miss) and runs the whole
  // frontier once. batch_threads=1 is the smallest pool, one worker joined
  // by the calling thread: the EstimateMany arm fans out on 2 threads once,
  // the scalar loop once per probe (each miss is a one-item batch).
  auto time_arm = [&](bool vectorized, std::vector<double>* out) {
    advisor::WhatIfEstimatorOptions opts;
    opts.batch_threads = 1;
    advisor::WhatIfCostEstimator est(
        tb.machine(), {tb.MakeTenant(tb.pg_sf1(), w)}, opts);
    auto start = std::chrono::steady_clock::now();
    if (vectorized) {
      *out = est.EstimateMany(frontier);
    } else {
      // One probe per call: each (probe, statement) is a one-member
      // OptimizeGrid, sharing nothing with the other probes.
      out->clear();
      out->reserve(frontier.size());
      for (const auto& item : frontier) {
        out->push_back(est.EstimateSeconds(item.tenant, item.r));
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto median3 = [&](bool vectorized, std::vector<double>* out) {
    double a = time_arm(vectorized, out);
    double b = time_arm(vectorized, out);
    double c = time_arm(vectorized, out);
    double lo = std::min(a, std::min(b, c));
    double hi = std::max(a, std::max(b, c));
    return a + b + c - lo - hi;
  };

  std::vector<double> scalar_vals, arena_vals;
  time_arm(false, &scalar_vals);  // warm testbed caches once
  double scalar_s = median3(false, &scalar_vals);
  double arena_s = median3(true, &arena_vals);

  bool identical = scalar_vals == arena_vals;
  const double probes = static_cast<double>(frontier.size());
  double scalar_rate = scalar_s > 0.0 ? probes / scalar_s : 0.0;
  double arena_rate = arena_s > 0.0 ? probes / arena_s : 0.0;
  std::printf(
      "what-if probe throughput (%zu probes x %zu stmts): scalar %.0f/s, "
      "arena+vectorized %.0f/s (%.2fx), identical estimates: %s\n",
      frontier.size(), w.statements.size(), scalar_rate, arena_rate,
      scalar_s / arena_s, identical ? "yes" : "NO (bug)");
  RecordMetric("whatif_probes_per_sec_scalar", scalar_rate);
  RecordMetric("whatif_probes_per_sec_arena_vectorized", arena_rate);
  RecordMetric("whatif_arena_vectorized_speedup",
               arena_s > 0.0 ? scalar_s / arena_s : 0.0);
  RecordMetric("whatif_probe_results_identical", identical ? 1.0 : 0.0);
}

/// Times one full-grid estimation pass sequentially vs batched and records
/// the wall-time speedup (the acceptance metric for the batch API).
void RecordEstimateBatchSpeedup() {
  PrintHeader("micro_benchmarks",
              "EstimateBatch vs sequential what-if estimation (plus the "
              "google-benchmark suite below)");
  scenario::Testbed& tb = SharedTestbed();
  simdb::Workload w = DssWorkload(tb);
  std::vector<simvm::ResourceVector> grid = CandidateGrid(0.05);

  auto time_once = [&](int batch_threads, bool batched) {
    advisor::WhatIfEstimatorOptions opts;
    opts.batch_threads = batch_threads;
    advisor::WhatIfCostEstimator est(
        tb.machine(), {tb.MakeTenant(tb.pg_sf1(), w)}, opts);
    auto start = std::chrono::steady_clock::now();
    if (batched) {
      est.EstimateBatch(0, grid);
    } else {
      for (const auto& r : grid) est.EstimateSeconds(0, r);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Warm up once (testbed queries, allocators), then measure.
  time_once(1, false);
  double seq_seconds = time_once(1, false);
  double batch_seconds = time_once(0, true);
  double speedup = batch_seconds > 0.0 ? seq_seconds / batch_seconds : 0.0;
  std::printf("EstimateBatch: %zu candidates, sequential %.1f ms, "
              "batched %.1f ms, speedup %.2fx\n",
              grid.size(), seq_seconds * 1e3, batch_seconds * 1e3, speedup);
  RecordMetric("estimate_batch_candidates", static_cast<double>(grid.size()));
  RecordMetric("estimate_batch_sequential_ms", seq_seconds * 1e3);
  RecordMetric("estimate_batch_parallel_ms", batch_seconds * 1e3);
  RecordMetric("estimate_batch_speedup", speedup);

  // Cross-tenant fan-out: one greedy-iteration-shaped frontier over eight
  // heterogeneous tenants, EstimateMany vs per-item sequential estimation.
  const int n = 8;
  std::vector<advisor::Tenant> tenants;
  for (int i = 0; i < n; ++i) {
    simdb::Workload wt;
    wt.AddStatement(workload::TpchQuery(tb.tpch_sf1(), i % 2 ? 18 : 21),
                    1.0 + i % 3);
    tenants.push_back(tb.MakeTenant(i % 2 ? tb.db2_sf1() : tb.pg_sf1(), wt));
  }
  std::vector<advisor::TenantAllocation> frontier;
  for (int i = 0; i < n; ++i) {
    for (double c = 0.05; c <= 1.0 + 1e-9; c += 0.05) {
      frontier.push_back({i, {std::min(c, 1.0), 0.5}});
      frontier.push_back({i, {0.5, std::min(c, 1.0)}});
    }
  }
  auto time_many = [&](bool batched) {
    advisor::WhatIfCostEstimator est(tb.machine(), tenants);
    auto start = std::chrono::steady_clock::now();
    if (batched) {
      est.EstimateMany(frontier);
    } else {
      for (const advisor::TenantAllocation& item : frontier) {
        est.EstimateSeconds(item.tenant, item.r);
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  time_many(false);  // warm
  double many_seq = time_many(false);
  double many_batch = time_many(true);
  double many_speedup = many_batch > 0.0 ? many_seq / many_batch : 0.0;
  std::printf("EstimateMany: %zu cross-tenant probes (%d tenants), "
              "sequential %.1f ms, batched %.1f ms, speedup %.2fx\n",
              frontier.size(), n, many_seq * 1e3, many_batch * 1e3,
              many_speedup);
  RecordMetric("estimate_many_probes", static_cast<double>(frontier.size()));
  RecordMetric("estimate_many_tenants", n);
  RecordMetric("estimate_many_sequential_ms", many_seq * 1e3);
  RecordMetric("estimate_many_parallel_ms", many_batch * 1e3);
  RecordMetric("estimate_many_speedup", many_speedup);

  // Probe-throughput arms share the artifact's JSON record.
  RecordWhatIfProbeThroughput();
  PrintFooter();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordEstimateBatchSpeedup();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
