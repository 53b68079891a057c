// Figures 25-27: allocating CPU AND memory for random workloads (DB2).
// Workload units: SF10 unit = one Q7 + one Q21 (both 10 GB); SF1 unit =
// matched copies of Q18 (1 GB). CPU-share order stays stable as N grows;
// memory-share order need not (memory effects are nonlinear); the advisor
// stays near the optimal allocation's improvement. "Optimal" is the better
// of local search and the exact grid optimum, both over measured costs.
#include <algorithm>
#include <cstdio>

#include "advisor/advisor.h"
#include "advisor/local_search.h"
#include "bench_common.h"
#include "workload/generator.h"
#include "workload/units.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

int main() {
  PrintHeader("Figures 25-27 (multi-resource allocation, DB2)",
              "CPU-share order maintained; memory order may reorder "
              "(nonlinear); advisor near optimal");
  scenario::Testbed& tb = SharedTestbed();
  Rng rng(20080610);

  // SF10 unit: 1 x Q7 + 1 x Q21 at SF10.
  simdb::Workload sf10_unit;
  sf10_unit.name = "sf10-unit";
  sf10_unit.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 7), 1.0);
  sf10_unit.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 21), 1.0);
  // SF1 unit: copies of Q18 matched at 100% CPU and memory.
  double unit_target = tb.hypervisor()->TrueWorkloadSeconds(
      tb.db2_sf10(), sf10_unit, {1.0, 1.0});
  simdb::QuerySpec q18 = workload::TpchQuery(tb.tpch_sf1(), 18);
  simdb::Workload sf1_unit = workload::MakeRepeatedQueryWorkload(
      "sf1-unit", q18,
      workload::CopiesToMatch(tb.db2_sf1(), q18, tb.FullEnv(),
                              tb.machine().memory_mb, unit_target));
  std::printf("SF1 unit = %.0f x Q18 matched to (Q7+Q21)@SF10 = %.0fs\n",
              sf1_unit.statements[0].frequency, unit_target);

  workload::UnitMixOptions mix_opts;
  mix_opts.min_units = 1;
  mix_opts.max_units = 10;
  auto mixes =
      workload::MakeRandomUnitMixes(sf10_unit, sf1_unit, mix_opts, &rng);
  // Tenants alternate engines by which database dominates their mix; for
  // simplicity every tenant runs the SF10 engine when it holds any SF10
  // unit, else the SF1 engine.
  auto engine_for = [&](const simdb::Workload& w) -> const simdb::DbEngine& {
    for (const auto& s : w.statements) {
      if (s.query.name == "Q7" || s.query.name == "Q21") {
        return tb.db2_sf10();
      }
    }
    return tb.db2_sf1();
  };

  std::vector<std::string> header = {"N", "metric"};
  for (int i = 1; i <= 10; ++i) header.push_back("W" + std::to_string(i));
  TablePrinter t(header);
  TablePrinter imp({"N", "advisor improvement", "optimal improvement"});
  for (int n = 2; n <= 10; n += 1) {
    std::vector<advisor::Tenant> tenants;
    for (int i = 0; i < n; ++i) {
      tenants.push_back(tb.MakeTenant(engine_for(mixes[static_cast<size_t>(i)]),
                                      mixes[static_cast<size_t>(i)]));
    }
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants);
    advisor::Recommendation rec = adv.Recommend();

    std::vector<std::string> cpu_row = {std::to_string(n), "cpu"};
    std::vector<std::string> mem_row = {std::to_string(n), "mem"};
    for (int i = 0; i < 10; ++i) {
      if (i < n) {
        cpu_row.push_back(TablePrinter::Pct(rec.allocations[i].cpu_share(), 0));
        mem_row.push_back(TablePrinter::Pct(rec.allocations[i].mem_share(), 0));
      } else {
        cpu_row.push_back("-");
        mem_row.push_back("-");
      }
    }
    t.AddRow(cpu_row);
    t.AddRow(mem_row);

    auto actual_total = [&](const std::vector<simvm::ResourceVector>& a) {
      return tb.TrueTotalSeconds(tenants, a);
    };
    auto def = advisor::DefaultAllocation(n);
    double t_def = actual_total(def);
    double adv_imp = (t_def - actual_total(rec.allocations)) / t_def;
    // Optimal on actuals: the better of local search from the equal split
    // and the advisor's answer, and the exact grid optimum (dp_prune).
    advisor::SearchResult best = advisor::LocalSearch(
        {def, rec.allocations}, actual_total, adv.options().search.enumerator);
    advisor::SearchSpec grid_spec = adv.options().search;
    grid_spec.strategy = "dp_prune";
    ActualCostEstimator actuals(tb, tenants);
    double grid_objective = advisor::MakeSearchStrategy(grid_spec)
                                ->Run(&actuals, adv.QosList(), {})
                                .objective;
    double opt_imp =
        (t_def - std::min(best.objective, grid_objective)) / t_def;
    imp.AddRow({std::to_string(n), TablePrinter::Pct(adv_imp, 1),
                TablePrinter::Pct(opt_imp, 1)});
  }
  std::printf("--- Figures 25-26: CPU and memory shares ---\n");
  t.Print();
  std::printf("--- Figure 27: actual improvement vs optimal ---\n");
  imp.Print();
  PrintFooter();
  return 0;
}
