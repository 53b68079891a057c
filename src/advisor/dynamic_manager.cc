#include "advisor/dynamic_manager.h"

#include <cmath>

#include "advisor/refinement.h"
#include "util/check.h"
#include "util/stats.h"

namespace vdba::advisor {

DynamicConfigurationManager::DynamicConfigurationManager(
    VirtualizationDesignAdvisor* advisor, simvm::Hypervisor* hypervisor,
    DynamicOptions options)
    : advisor_(advisor), hypervisor_(hypervisor), options_(options) {
  VDBA_CHECK(advisor_ != nullptr);
  VDBA_CHECK(hypervisor_ != nullptr);
}

double DynamicConfigurationManager::AvgEstimatePerQuery(int tenant) {
  const Tenant& t =
      advisor_->estimator()->tenants()[static_cast<size_t>(tenant)];
  double freq = t.workload.TotalFrequency();
  if (freq <= 0.0) return 0.0;
  // Reference allocation: the default 1/N shares. A fixed reference keeps
  // the metric sensitive to the *nature* of the queries rather than to
  // allocation moves (§6.1).
  simvm::ResourceVector ref =
      DefaultAllocation(advisor_->num_tenants(),
                        advisor_->estimator()->num_dims())[0];
  double est = advisor_->estimator()->EstimateSeconds(tenant, ref);
  return est / freq;
}

std::vector<simvm::ResourceVector> DynamicConfigurationManager::Enumerate() {
  std::vector<const FittedCostModel*> model_ptrs;
  model_ptrs.reserve(models_.size());
  for (auto& m : models_) model_ptrs.push_back(m.get());
  ModelCostEstimator estimator(model_ptrs, advisor_->estimator(),
                               advisor_->estimator()->num_dims());
  std::unique_ptr<SearchStrategy> strategy = advisor_->MakeStrategy();
  // Cold re-enumeration from the default split: the paper's §6 behaviour.
  return strategy->Run(&estimator, advisor_->QosList(), {}).allocations;
}

std::vector<simvm::ResourceVector> DynamicConfigurationManager::Initialize() {
  Recommendation rec = advisor_->Recommend();
  const int n = advisor_->num_tenants();
  models_.clear();
  for (int i = 0; i < n; ++i) {
    models_.push_back(std::make_unique<FittedCostModel>(
        FittedCostModel::FromObservations(
            advisor_->estimator()->observations(i))));
  }
  allocations_ = rec.allocations;
  prev_metric_.assign(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    prev_metric_[static_cast<size_t>(i)] = AvgEstimatePerQuery(i);
  }
  prev_error_.assign(static_cast<size_t>(n), 0.0);
  refinement_converged_.assign(static_cast<size_t>(n), false);
  initialized_ = true;
  return allocations_;
}

void DynamicConfigurationManager::RebuildModel(
    int tenant, double observed_actual, const simvm::ResourceVector& observed_at) {
  // Fresh optimizer-based model: probe the estimator across the allocation
  // range so the new model has intervals and fitting data. (The strategy
  // re-run would also populate the log, but an explicit sweep keeps the
  // model well-conditioned regardless of where enumeration wanders.) The
  // whole sweep goes out as one batch so the estimator can fan it over
  // its thread pool; probe order matches the old sequential loop, so the
  // observation log is unchanged.
  WhatIfCostEstimator* est = advisor_->estimator();
  const EnumeratorOptions& moves = advisor_->options().search.enumerator;
  std::vector<simvm::ResourceVector> sweep;
  for (double share = moves.min_share; share <= 1.0 + 1e-9;
       share += moves.delta) {
    double s = share > 1.0 ? 1.0 : share;
    sweep.push_back(simvm::ResourceVector::Uniform(est->num_dims(), s));
  }
  est->EstimateBatch(tenant, sweep);
  models_[static_cast<size_t>(tenant)] = std::make_unique<FittedCostModel>(
      FittedCostModel::FromObservations(est->observations(tenant)));
  // One §5.1 refinement step from the post-change observation.
  double model_est =
      models_[static_cast<size_t>(tenant)]->Eval(observed_at);
  if (model_est > 0.0 && observed_actual > 0.0) {
    models_[static_cast<size_t>(tenant)]->ScaleAll(observed_actual /
                                                   model_est);
  }
  refinement_converged_[static_cast<size_t>(tenant)] = false;
}

PeriodResult DynamicConfigurationManager::EndPeriod(
    const std::vector<simdb::Workload>& observed) {
  VDBA_CHECK_MSG(initialized_, "call Initialize() first");
  const int n = advisor_->num_tenants();
  VDBA_CHECK_EQ(observed.size(), static_cast<size_t>(n));

  PeriodResult result;
  result.allocations = allocations_;
  result.actual_seconds.resize(static_cast<size_t>(n));
  result.change_metric.resize(static_cast<size_t>(n));
  result.major_change.assign(static_cast<size_t>(n), false);
  result.relative_error.resize(static_cast<size_t>(n));

  for (int i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    const simvm::ResourceVector& r = allocations_[si];
    const Tenant& t = advisor_->estimator()->tenants()[si];

    // The period ran `observed[i]` (which may differ from the workload the
    // estimator believed); measure it.
    double act = hypervisor_->RunWorkload(*t.engine, observed[si], r);
    result.actual_seconds[si] = act;

    // Update the estimator's view of the workload, then compute the
    // change metric against the previous period.
    advisor_->estimator()->SetWorkload(i, observed[si]);
    double metric = AvgEstimatePerQuery(i);
    double change = prev_metric_[si] > 0.0
                        ? std::fabs(metric - prev_metric_[si]) / prev_metric_[si]
                        : 0.0;
    result.change_metric[si] = change;
    prev_metric_[si] = metric;

    double est = models_[si]->Eval(r);
    double error = RelativeError(est, act);
    result.relative_error[si] = error;

    bool major = change > options_.theta &&
                 options_.policy == ReallocationPolicy::kDynamic;
    if (!major && options_.policy == ReallocationPolicy::kDynamic &&
        change > 0.0 && !refinement_converged_[si]) {
      // Minor change before refinement convergence: continue refining only
      // if errors are small or shrinking (§6.2), else treat as major.
      bool errors_ok = (prev_error_[si] <= options_.error_threshold &&
                        error <= options_.error_threshold) ||
                       error < prev_error_[si];
      if (!errors_ok) major = true;
    }
    result.major_change[si] = major;

    if (major) {
      RebuildModel(i, act, r);
    } else {
      // Minor change (or continuous-refinement policy): one §5 step.
      bool refit = models_[si]->AddActualObservation(r, act);
      if (!refit && est > 0.0) {
        models_[si]->ScaleSegmentAt(r.mem_share(), act / est);
      }
    }
    prev_error_[si] = error;
  }

  std::vector<simvm::ResourceVector> next = Enumerate();
  const double tol = advisor_->options().search.enumerator.delta / 10.0;
  for (int i = 0; i < n; ++i) {
    refinement_converged_[static_cast<size_t>(i)] =
        SameAllocation({next[static_cast<size_t>(i)]},
                       {allocations_[static_cast<size_t>(i)]}, tol);
  }
  allocations_ = next;
  result.allocations = next;
  return result;
}

}  // namespace vdba::advisor
