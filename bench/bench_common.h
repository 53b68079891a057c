// Shared helpers for the figure/table reproduction benches.
#ifndef VDBA_BENCH_BENCH_COMMON_H_
#define VDBA_BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "advisor/cost_estimator.h"
#include "scenario/scenario.h"
#include "util/table_printer.h"

namespace vdba::bench {

/// Prints the standard bench banner: which paper artifact this harness
/// regenerates and what the paper reported. Also opens a JSON record for
/// the artifact (see RecordMetric / PrintFooter).
void PrintHeader(const std::string& artifact, const std::string& paper_says);

/// Prints a closing line (keeps bench outputs uniform and greppable) and,
/// when VDBA_BENCH_JSON_DIR is set, writes `BENCH_<slug>.json` there with
/// the artifact name, wall time, and any metrics recorded since the
/// matching PrintHeader.
void PrintFooter();

/// Attaches a named scalar to the JSON record of the currently open
/// artifact (no-op outside a PrintHeader/PrintFooter bracket). Future PRs
/// use this to track figure-level trajectories (e.g. objective values,
/// advisor runtimes) across commits.
void RecordMetric(const std::string& name, double value);

/// Lazily-constructed shared testbed (calibration happens once per bench
/// process).
scenario::Testbed& SharedTestbed();

/// CPU-only experiment allocations: equal CPU, fixed experiment memory.
std::vector<simvm::ResourceVector> CpuExperimentDefault(int n);

/// Answers every probe with the tenant's noise-free MEASURED completion
/// time on the simulated testbed. Feeding it to a registered search
/// strategy turns that strategy into a search over actual costs (with
/// gains 1 the objective is TrueTotalSeconds, since actual costs add per
/// tenant) — the figures' "optimal" yardstick.
class ActualCostEstimator : public advisor::CostEstimator {
 public:
  ActualCostEstimator(const scenario::Testbed& tb,
                      std::vector<advisor::Tenant> tenants)
      : tb_(tb), tenants_(std::move(tenants)) {}
  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override {
    return tb_.TrueSeconds(tenants_[static_cast<size_t>(tenant)], r);
  }
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return tb_.machine().resources->dims(); }

 private:
  const scenario::Testbed& tb_;
  std::vector<advisor::Tenant> tenants_;
};

}  // namespace vdba::bench

#endif  // VDBA_BENCH_BENCH_COMMON_H_
