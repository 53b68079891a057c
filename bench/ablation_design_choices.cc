// Ablations for the design choices called out in DESIGN.md:
//  D2 - greedy step size delta (2.5% / 5% / 10%) vs solution quality,
//  D3 - estimator cache on the greedy loop (optimizer calls saved),
//  I/O-contention VM (§7.1) on/off: how the conservative environment
//       changes the advisor's CPU split,
//  search strategies: every registered SearchStrategy on the same M = 3
//       tenants, plus an M = 4 arm with a data-shipping tenant (objective
//       + latency recorded per strategy and dimensionality, so the perf
//       gate guards the strategy code paths),
//  dp_prune optimality sweep: N in {2, 4, 8, 16} at M = 4 — the bench's
//       exit code enforces that dp_prune beats-or-ties an on-grid greedy at
//       N = 16 and stays under the latency gate (the quality-vs-latency
//       story of the exact search; its bit-exact agreement with the
//       brute-force grid walk at the N <= 4 points is a tier-1 test in
//       tests/dp_prune_test.cc).
#include <chrono>
#include <cstdio>

#include "advisor/advisor.h"
#include "advisor/greedy_enumerator.h"
#include "advisor/search_strategy.h"
#include "bench_common.h"
#include "workload/tpch.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

int main() {
  PrintHeader("Ablations (DESIGN.md D2/D3 + contention VM)",
              "design-choice sensitivity; not a paper artifact");
  scenario::Testbed& tb = SharedTestbed();

  simdb::Workload w1, w2, w3;
  w1.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 18), 10.0);
  w2.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 21), 10.0);
  w3.AddStatement(workload::TpchQuery(tb.tpch_sf1(), 1), 6.0);
  std::vector<advisor::Tenant> tenants = {tb.MakeTenant(tb.db2_sf1(), w1),
                                          tb.MakeTenant(tb.db2_sf1(), w2),
                                          tb.MakeTenant(tb.db2_sf1(), w3)};

  // --- D2: delta sensitivity ---
  std::printf("--- D2: greedy step size ---\n");
  TablePrinter d2({"delta", "iterations", "objective (est s)",
                   "act improvement"});
  for (double delta : {0.025, 0.05, 0.10}) {
    advisor::AdvisorOptions opts;
    opts.search.enumerator.delta = delta;
    opts.search.enumerator.min_share = delta;
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants, opts);
    advisor::Recommendation rec = adv.Recommend();
    d2.AddRow({TablePrinter::Pct(delta, 1), std::to_string(rec.iterations),
               TablePrinter::Num(rec.objective, 0),
               TablePrinter::Pct(
                   tb.ActualImprovement(tenants, rec.allocations), 1)});
  }
  d2.Print();

  // --- D3: estimator cache ---
  std::printf("\n--- D3: estimator cache during greedy search ---\n");
  {
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants);
    adv.Recommend();
    long calls = adv.estimator()->optimizer_calls();
    long hits = adv.estimator()->cache_hits();
    // Without the cache every (tenant, allocation) revisit would re-run the
    // optimizer: calls-without-cache = calls + hits * statements/visit.
    std::printf("optimizer calls with cache: %ld; cache hits: %ld "
                "(each hit saves one full workload optimization)\n",
                calls, hits);
  }

  // --- I/O-contention VM on/off ---
  std::printf("\n--- §7.1 I/O-contention VM ---\n");
  TablePrinter c({"io contention", "Q18-tenant cpu", "Q21-tenant cpu",
                  "est improvement"});
  for (double contention : {1.0, 1.8, 3.0}) {
    scenario::TestbedOptions topts;
    topts.hypervisor.io_contention_factor = contention;
    topts.with_sf10 = false;
    topts.with_tpcc = false;
    scenario::Testbed local(topts);
    std::vector<advisor::Tenant> t2 = {local.MakeTenant(local.db2_sf1(), w1),
                                       local.MakeTenant(local.db2_sf1(), w2)};
    advisor::AdvisorOptions opts;
    opts.search.enumerator.allocate[simvm::kMemDim] = false;
    advisor::VirtualizationDesignAdvisor adv(local.machine(), t2, opts);
    advisor::GreedyEnumerator greedy(opts.search.enumerator);
    auto init = std::vector<simvm::ResourceVector>(
        2, simvm::ResourceVector{0.5, local.CpuExperimentMemShare()});
    auto res = greedy.Run(adv.estimator(), adv.QosList(), init);
    double est_def = adv.EstimateTotalSeconds(init);
    double est_rec = adv.EstimateTotalSeconds(res.allocations);
    c.AddRow({TablePrinter::Num(contention, 1),
              TablePrinter::Pct(res.allocations[0].cpu_share(), 0),
              TablePrinter::Pct(res.allocations[1].cpu_share(), 0),
              TablePrinter::Pct((est_def - est_rec) / est_def, 1)});
  }
  c.Print();
  std::printf("(heavier I/O contention raises every tenant's I/O floor, so "
              "CPU shifts matter relatively less and the split narrows)\n");

  // --- Search strategies at M = 3 ---
  // The strategy-comparison scenario the SearchStrategy API opens: every
  // registered policy on the same two mixed-intensity tenants with the
  // machine rationing CPU, memory, and I/O bandwidth — selected purely by
  // SearchSpec::strategy. delta = 0.1 keeps dp_prune's grid small.
  std::printf("\n--- search strategies (M = 3, 2 tenants) ---\n");
  TablePrinter s({"strategy", "objective (est s)", "iter/evals", "ms"});
  simvm::PhysicalMachine m3 = tb.machine();
  m3.resources = &simvm::ResourceModel::CpuMemIo();
  std::vector<advisor::Tenant> t3 = {tb.MakeTenant(tb.db2_sf1(), w1),
                                     tb.MakeTenant(tb.db2_sf1(), w2)};
  for (const std::string& name : advisor::RegisteredSearchStrategies()) {
    advisor::AdvisorOptions opts;
    opts.search.strategy = name;
    opts.search.enumerator.delta = 0.1;
    opts.search.enumerator.min_share = 0.1;
    advisor::VirtualizationDesignAdvisor adv(m3, t3, opts);
    auto start = std::chrono::steady_clock::now();
    advisor::Recommendation rec = adv.Recommend();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    s.AddRow({name, TablePrinter::Num(rec.objective, 0),
              std::to_string(rec.iterations), TablePrinter::Num(ms, 1)});
    RecordMetric("strategy_" + name + "_objective_sec", rec.objective);
    RecordMetric("strategy_" + name + "_latency_ms", ms);
  }
  s.Print();
  std::printf("(dp_prune is the quality yardstick; greedy_refine must "
              "land between greedy and dp_prune)\n");

  // --- Search strategies at M = 4 ---
  // Same sweep with the machine additionally rationing network bandwidth
  // and one tenant running a data-shipping workload: every strategy picks
  // up the fourth dimension from the estimator's num_dims() without any
  // strategy-side changes.
  std::printf("\n--- search strategies (M = 4, 2 tenants) ---\n");
  TablePrinter s4({"strategy", "objective (est s)", "iter/evals", "ms"});
  simvm::PhysicalMachine m4 = tb.machine();
  m4.resources = &simvm::ResourceModel::CpuMemIoNet();
  simdb::Workload wx;
  wx.AddStatement(workload::TpchReplicationExtract(tb.tpch_sf1()), 10.0);
  std::vector<advisor::Tenant> t4 = {tb.MakeTenant(tb.db2_sf1(), w1),
                                     tb.MakeTenant(tb.db2_sf1(), wx)};
  for (const std::string& name : advisor::RegisteredSearchStrategies()) {
    advisor::AdvisorOptions opts;
    opts.search.strategy = name;
    // Coarser grid than the M = 3 sweep: the baselined _m4 metrics were
    // recorded at this step.
    opts.search.enumerator.delta = 0.25;
    opts.search.enumerator.min_share = 0.25;
    advisor::VirtualizationDesignAdvisor adv(m4, t4, opts);
    auto start = std::chrono::steady_clock::now();
    advisor::Recommendation rec = adv.Recommend();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    s4.AddRow({name, TablePrinter::Num(rec.objective, 0),
               std::to_string(rec.iterations), TablePrinter::Num(ms, 1)});
    RecordMetric("strategy_" + name + "_m4_objective_sec", rec.objective);
    RecordMetric("strategy_" + name + "_m4_latency_ms", ms);
  }
  s4.Print();

  // --- dp_prune optimality sweep: N in {2, 4, 8, 16} at M = 4 ---
  // The quality-vs-latency story of the exact search: the DP must keep
  // beating the heuristics as N grows (its bit-exact agreement with the
  // brute-force grid walk at the N <= 4 points is checked by
  // tests/dp_prune_test.cc). Grid parameters shrink with N so the
  // residual-budget step count (the DP table's width) stays bounded; the
  // heuristics are seeded ON the DP's share ladder (min_share + k *
  // delta), because their delta moves from the off-ladder 1/N split would
  // explore a shifted grid that no optimality claim covers.
  std::printf("\n--- dp_prune optimality sweep (M = 4) ---\n");
  struct SweepPoint {
    int n;
    double delta;
    double min_share;
    std::vector<double> greedy_init;  // on-ladder shares, every dimension
  };
  const std::vector<SweepPoint> sweep = {
      {2, 0.2, 0.05, {0.45, 0.45}},
      {4, 0.2, 0.15, {0.35, 0.35, 0.15, 0.15}},
      {8, 0.1, 0.05, {0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.05, 0.05}},
      {16, 0.05, 0.05, {0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05,
                        0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}},
  };
  // Generous absolute ceiling for the N = 16 DP solve: an order of
  // magnitude above what a 1-core CI host measures, so the gate catches
  // complexity regressions (table blow-ups), not host jitter.
  constexpr double kDpLatencyGateMsN16 = 60000.0;

  std::vector<simdb::Workload> mix = {w1, w2, w3, wx};
  bool gates_ok = true;
  TablePrinter sweep_table({"N", "strategy", "objective (est s)",
                            "iter/evals", "ms"});
  for (const SweepPoint& point : sweep) {
    std::vector<advisor::Tenant> tn;
    for (int i = 0; i < point.n; ++i) {
      tn.push_back(tb.MakeTenant(
          tb.db2_sf1(), mix[static_cast<size_t>(i) % mix.size()]));
    }
    std::vector<simvm::ResourceVector> on_grid;
    for (double share : point.greedy_init) {
      on_grid.push_back(simvm::ResourceVector::Uniform(4, share));
    }

    auto run = [&](const std::string& name,
                   std::vector<simvm::ResourceVector> initial) {
      advisor::AdvisorOptions opts;
      opts.search.strategy = name;
      opts.search.enumerator.delta = point.delta;
      opts.search.enumerator.min_share = point.min_share;
      advisor::VirtualizationDesignAdvisor adv(m4, tn, opts);
      auto start = std::chrono::steady_clock::now();
      advisor::Recommendation rec = adv.Recommend(std::move(initial));
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      sweep_table.AddRow({std::to_string(point.n), rec.strategy,
                          TablePrinter::Num(rec.objective, 0),
                          std::to_string(rec.iterations),
                          TablePrinter::Num(ms, 1)});
      const std::string prefix =
          "strategy_" + name + "_n" + std::to_string(point.n);
      RecordMetric(prefix + "_objective_sec", rec.objective);
      RecordMetric(prefix + "_latency_ms", ms);
      return std::make_pair(rec, ms);
    };

    auto [dp, dp_ms] = run("dp_prune", {});
    auto [greedy, greedy_ms] = run("greedy", on_grid);
    // The annealing walk also needs the on-ladder start: from the 1/N
    // split a single finest-delta transfer would cut below min_share at
    // these coarse grids, leaving it no move frontier at all.
    run("annealing", on_grid);

    if (point.n == 16) {
      if (dp.objective > greedy.objective + 1e-9) {
        std::printf("GATE FAILED: dp_prune (%.6f) worse than on-grid "
                    "greedy (%.6f) at N = 16\n",
                    dp.objective, greedy.objective);
        gates_ok = false;
      }
      if (dp_ms > kDpLatencyGateMsN16) {
        std::printf("GATE FAILED: dp_prune N = 16 took %.0f ms "
                    "(gate %.0f ms)\n",
                    dp_ms, kDpLatencyGateMsN16);
        gates_ok = false;
      }
    }
  }
  sweep_table.Print();
  std::printf("(gates: dp_prune <= on-grid greedy at N = 16 under "
              "%.0f ms)\n",
              kDpLatencyGateMsN16);
  PrintFooter();
  return gates_ok ? 0 : 1;
}
