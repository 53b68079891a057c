// Figures 32-34: online refinement for MULTIPLE resources (DB2, SF10).
// Unit 1 = Q4 + Q18 (the optimizer underestimates how much extra sortheap
// helps them); unit 2 = a mix of Q8, Q16, Q20. Pre-refinement the advisor
// under-allocates memory to unit-1-heavy workloads; refinement corrects
// the memory split within a few iterations (paper: <= 5 iterations, up to
// 38%).
#include <cstdio>

#include "advisor/local_search.h"
#include "advisor/refinement.h"
#include "bench_common.h"
#include "workload/generator.h"
#include "workload/units.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

int main() {
  PrintHeader("Figures 32-34 (multi-resource refinement, DB2 SF10)",
              "refinement compensates for underestimated sortheap benefit; "
              "<= 5 iterations; improvements up to 38%");
  scenario::Testbed& tb = SharedTestbed();
  Rng rng(20080610);

  simdb::Workload unit1;
  unit1.name = "sort-heavy";
  unit1.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 4), 1.0);
  unit1.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 18), 1.0);
  simdb::Workload unit2;
  unit2.name = "sort-light";
  unit2.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 8), 1.0);
  unit2.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 16), 5.0);
  unit2.AddStatement(workload::TpchQuery(tb.tpch_sf10(), 20), 2.0);

  workload::UnitMixOptions mix_opts;
  mix_opts.min_units = 1;
  mix_opts.max_units = 3;
  auto mixes = workload::MakeRandomUnitMixes(unit1, unit2, mix_opts, &rng);

  TablePrinter shares({"N", "metric", "W1", "W2", "W3", "W4", "W5", "W6"});
  TablePrinter imp({"N", "imp pre", "imp post", "imp optimal", "iters"});
  for (int n = 2; n <= 6; n += 2) {
    std::vector<advisor::Tenant> tenants;
    for (int i = 0; i < n; ++i) {
      tenants.push_back(
          tb.MakeTenant(tb.db2_sf10(), mixes[static_cast<size_t>(i)]));
    }
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants);
    advisor::OnlineRefinement refine(&adv, tb.hypervisor());
    advisor::RefinementResult res = refine.Run();

    std::vector<std::string> cpu_row = {std::to_string(n), "cpu post"};
    std::vector<std::string> mem_row = {std::to_string(n), "mem post"};
    for (int i = 0; i < 6; ++i) {
      if (i < n) {
        cpu_row.push_back(
            TablePrinter::Pct(res.final_allocations[i].cpu_share(), 0));
        mem_row.push_back(
            TablePrinter::Pct(res.final_allocations[i].mem_share(), 0));
      } else {
        cpu_row.push_back("-");
        mem_row.push_back("-");
      }
    }
    shares.AddRow(cpu_row);
    shares.AddRow(mem_row);

    auto actual_total = [&](const std::vector<simvm::ResourceVector>& a) {
      return tb.TrueTotalSeconds(tenants, a);
    };
    auto def = advisor::DefaultAllocation(n);
    double t_def = actual_total(def);
    double pre = (t_def - actual_total(res.initial_allocations)) / t_def;
    double post = (t_def - actual_total(res.final_allocations)) / t_def;
    advisor::SearchResult best =
        advisor::LocalSearch({def, res.final_allocations,
                              res.initial_allocations},
                             actual_total, adv.options().search.enumerator);
    double opt = (t_def - best.objective) / t_def;
    imp.AddRow({std::to_string(n), TablePrinter::Pct(pre, 1),
                TablePrinter::Pct(post, 1), TablePrinter::Pct(opt, 1),
                std::to_string(res.iterations)});
  }
  std::printf("--- Figures 32-33: post-refinement CPU/memory shares ---\n");
  shares.Print();
  std::printf("--- Figure 34: improvement with refinement ---\n");
  imp.Print();
  PrintFooter();
  return 0;
}
