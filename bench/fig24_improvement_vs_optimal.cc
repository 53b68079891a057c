// Figure 24: actual performance improvement of the advisor's CPU
// allocation vs the optimal allocation, for N = 2..10 PostgreSQL TPC-H
// workloads. The paper measured "optimal" by brute force. Here it is the
// better of two searches over MEASURED costs (ActualCostEstimator): the
// exact grid optimum from the "dp_prune" strategy, with the experiment
// memory pinned from the equal split, and local search from both the
// equal split and the advisor's answer. The grid sits on the min_share
// ladder while the advisor walks from 1/N, so neither alone bounds the
// advisor at every N.
// Also prints the D1 ablation: estimating with default (uncalibrated)
// parameters instead of the calibrated what-if mapping.
#include <algorithm>
#include <cstdio>

#include "advisor/advisor.h"
#include "advisor/local_search.h"
#include "bench_common.h"
#include "workload/generator.h"
#include "workload/units.h"

using namespace vdba;         // NOLINT
using namespace vdba::bench;  // NOLINT

namespace {

/// D1 ablation estimator: what-if calls under DEFAULT engine parameters,
/// ignoring the candidate allocation entirely (no calibration mapping).
class NoWhatIfEstimator : public advisor::CostEstimator {
 public:
  explicit NoWhatIfEstimator(std::vector<advisor::Tenant> tenants)
      : tenants_(std::move(tenants)) {}
  double EstimateSeconds(int tenant, const simvm::ResourceVector&) override {
    const advisor::Tenant& t = tenants_[static_cast<size_t>(tenant)];
    double total = 0.0;
    for (const auto& s : t.workload.statements) {
      total += t.calibration->ToSeconds(
                   t.engine->WhatIfOptimize(s.query, t.engine->DefaultParams())
                       .native_cost) *
               s.frequency;
    }
    return total;
  }
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return 2; }

 private:
  std::vector<advisor::Tenant> tenants_;
};

}  // namespace

int main() {
  PrintHeader("Figure 24 (advisor vs optimal, PostgreSQL TPC-H)",
              "advisor's actual improvement is near the optimal allocation's "
              "improvement for every N");
  scenario::Testbed& tb = SharedTestbed();
  Rng rng(20080610);

  simdb::Workload q17_unit = workload::MakeRepeatedQueryWorkload(
      "q17", workload::TpchQuery(tb.tpch_sf10(), 17), 1.0);
  simdb::QuerySpec q18m = workload::TpchQuery18Modified(tb.tpch_sf10());
  simdb::Workload q18m_unit = workload::MakeRepeatedQueryWorkload(
      "q18m", q18m,
      workload::CopiesToMatch(tb.pg_sf10(), q18m, tb.CpuUnitEnv(),
                              scenario::Testbed::kCpuExperimentMemoryMb,
                              tb.hypervisor()->TrueWorkloadSeconds(
                                  tb.pg_sf10(), q17_unit,
                                  {1.0, tb.CpuExperimentMemShare()})));
  workload::UnitMixOptions mix_opts;
  auto mixes =
      workload::MakeRandomUnitMixes(q17_unit, q18m_unit, mix_opts, &rng);

  TablePrinter t({"N", "advisor improvement", "optimal improvement",
                  "no-what-if ablation (D1)"});
  for (int n = 2; n <= 10; ++n) {
    std::vector<advisor::Tenant> tenants;
    for (int i = 0; i < n; ++i) {
      tenants.push_back(
          tb.MakeTenant(tb.pg_sf10(), mixes[static_cast<size_t>(i)]));
    }
    advisor::AdvisorOptions opts;  // strategy: greedy
    opts.search.enumerator.allocate[simvm::kMemDim] = false;
    advisor::VirtualizationDesignAdvisor adv(tb.machine(), tenants, opts);
    auto init = CpuExperimentDefault(n);
    auto rec = adv.MakeStrategy()->Run(adv.estimator(), adv.QosList(), init);

    auto actual_total = [&](const std::vector<simvm::ResourceVector>& a) {
      return tb.TrueTotalSeconds(tenants, a);
    };
    double t_def = actual_total(init);
    double adv_imp = (t_def - actual_total(rec.allocations)) / t_def;

    // Optimal on actuals. dp_prune pins the non-allocated memory from
    // `init` on its whole grid; local search starts from `init` and from
    // the advisor's answer, both at the experiment's fixed memory.
    advisor::SearchSpec grid_spec = opts.search;
    grid_spec.strategy = "dp_prune";
    ActualCostEstimator actuals(tb, tenants);
    double grid_objective = advisor::MakeSearchStrategy(grid_spec)
                                ->Run(&actuals, adv.QosList(), init)
                                .objective;
    double climb_objective =
        advisor::LocalSearch({init, rec.allocations}, actual_total,
                             opts.search.enumerator)
            .objective;
    double opt_imp =
        (t_def - std::min(grid_objective, climb_objective)) / t_def;

    // D1 ablation: no what-if mapping.
    NoWhatIfEstimator ablation(tenants);
    auto abl = adv.MakeStrategy()->Run(&ablation, adv.QosList(), init);
    double abl_imp = (t_def - actual_total(abl.allocations)) / t_def;

    t.AddRow({std::to_string(n), TablePrinter::Pct(adv_imp, 1),
              TablePrinter::Pct(opt_imp, 1), TablePrinter::Pct(abl_imp, 1)});
  }
  t.Print();
  PrintFooter();
  return 0;
}
