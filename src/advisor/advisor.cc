#include "advisor/advisor.h"

#include "util/check.h"

namespace vdba::advisor {

VirtualizationDesignAdvisor::VirtualizationDesignAdvisor(
    const simvm::PhysicalMachine& machine, std::vector<Tenant> tenants,
    AdvisorOptions options)
    : machine_(machine),
      options_(std::move(options)),
      estimator_(std::make_unique<WhatIfCostEstimator>(
          machine, std::move(tenants), options_.estimator)) {}

std::vector<QosSpec> VirtualizationDesignAdvisor::QosList() const {
  std::vector<QosSpec> qos;
  qos.reserve(estimator_->tenants().size());
  for (const Tenant& t : estimator_->tenants()) qos.push_back(t.qos);
  return qos;
}

Recommendation VirtualizationDesignAdvisor::Recommend() { return Recommend({}); }

Recommendation VirtualizationDesignAdvisor::Recommend(
    std::vector<simvm::ResourceVector> initial) {
  std::unique_ptr<SearchStrategy> strategy = MakeStrategy();
  EnumerationResult res =
      strategy->Run(estimator_.get(), QosList(), std::move(initial));

  Recommendation rec;
  rec.strategy = std::string(strategy->name());
  rec.allocations = res.allocations;
  rec.estimated_seconds = res.tenant_costs;
  rec.objective = res.objective;
  rec.iterations = res.iterations;
  rec.converged = res.converged;
  rec.violated_qos = res.violated_qos;

  double t_default = EstimateTotalSeconds(
      DefaultAllocation(num_tenants(), estimator_->num_dims()));
  double t_advisor = 0.0;
  for (double c : res.tenant_costs) t_advisor += c;
  rec.estimated_improvement =
      t_default > 0.0 ? (t_default - t_advisor) / t_default : 0.0;
  return rec;
}

double VirtualizationDesignAdvisor::EstimateTotalSeconds(
    const std::vector<simvm::ResourceVector>& alloc) {
  VDBA_CHECK_EQ(static_cast<int>(alloc.size()), num_tenants());
  std::vector<TenantAllocation> batch;
  batch.reserve(alloc.size());
  for (int i = 0; i < num_tenants(); ++i) {
    batch.push_back(TenantAllocation{i, alloc[static_cast<size_t>(i)]});
  }
  double total = 0.0;
  for (double seconds : estimator_->EstimateMany(batch)) total += seconds;
  return total;
}

}  // namespace vdba::advisor
