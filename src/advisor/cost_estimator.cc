#include "advisor/cost_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace vdba::advisor {

std::vector<double> CostEstimator::EstimateBatch(
    int tenant, std::span<const simvm::ResourceVector> candidates) {
  std::vector<TenantAllocation> batch;
  batch.reserve(candidates.size());
  for (const simvm::ResourceVector& r : candidates) {
    batch.push_back(TenantAllocation{tenant, r});
  }
  return EstimateMany(batch);
}

std::vector<double> CostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  std::vector<double> out;
  out.reserve(batch.size());
  for (const TenantAllocation& item : batch) {
    out.push_back(EstimateSeconds(item.tenant, item.r));
  }
  return out;
}

namespace {

void ValidateTenant(const Tenant& t) {
  VDBA_CHECK(t.engine != nullptr);
  VDBA_CHECK(t.calibration != nullptr);
  VDBA_CHECK_EQ(static_cast<int>(t.engine->flavor()),
                static_cast<int>(t.calibration->flavor()));
}

}  // namespace

WhatIfCostEstimator::WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                                         std::vector<Tenant> tenants,
                                         WhatIfEstimatorOptions options)
    : machine_(machine), options_(options), tenants_(std::move(tenants)) {
  VDBA_CHECK(!tenants_.empty());
  for (const Tenant& t : tenants_) ValidateTenant(t);
  observations_.resize(tenants_.size());
}

WhatIfCostEstimator::~WhatIfCostEstimator() = default;

size_t WhatIfCostEstimator::CacheKeyHash::operator()(
    const CacheKey& k) const {
  // splitmix64-style hash combine; the seed's multiply-add scheme collided
  // whenever quantized shares traded off against each other.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(k.tenant);
  for (int qd : k.q) {
    uint64_t x = static_cast<uint64_t>(static_cast<int64_t>(qd)) +
                 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    h ^= x;
  }
  return static_cast<size_t>(h);
}

WhatIfCostEstimator::CacheKey WhatIfCostEstimator::MakeKey(
    int tenant, const simvm::ResourceVector& r) const {
  CacheKey key;
  key.tenant = tenant;
  for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
    key.q[static_cast<size_t>(d)] = static_cast<int>(
        std::lround(r.share(d) / kCacheGranularity));
  }
  return key;
}

WhatIfCostEstimator::CacheValue WhatIfCostEstimator::Compute(
    int tenant, const simvm::ResourceVector& r, long* calls) const {
  const Tenant& t = tenants_[static_cast<size_t>(tenant)];
  simdb::EngineParams params =
      t.calibration->ParamsFor(r, machine_.VmMemoryMb(r));
  double total = 0.0;
  std::string signature;
  for (const auto& stmt : t.workload.statements) {
    simdb::OptimizeResult opt = t.engine->WhatIfOptimize(stmt.query, params);
    ++*calls;
    total += t.calibration->ToSeconds(opt.native_cost, r) * stmt.frequency;
    signature += opt.signature;
    signature += ';';
  }
  return CacheValue{total, std::move(signature)};
}

const WhatIfCostEstimator::CacheValue& WhatIfCostEstimator::Insert(
    const CacheKey& key, int tenant, const simvm::ResourceVector& r,
    CacheValue value) {
  CacheShard& shard = ShardFor(key);
  const CacheValue* pos = nullptr;
  bool inserted = false;
  {
    std::unique_lock lock(shard.mu);
    auto [it, ins] = shard.map.emplace(key, std::move(value));
    pos = &it->second;
    inserted = ins;
  }
  if (inserted) {
    std::lock_guard lock(observations_mu_);
    observations_[static_cast<size_t>(tenant)].push_back(
        WhatIfObservation{r, pos->est_seconds, pos->signature});
  }
  return *pos;
}

const WhatIfCostEstimator::CacheValue& WhatIfCostEstimator::Lookup(
    int tenant, const simvm::ResourceVector& r) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  VDBA_CHECK_MSG(r.Valid(), "invalid allocation %s", r.ToString().c_str());

  // Canonical machine dimensionality keeps the observation log's feature
  // vectors uniform (missing dimensions are unallocated = share 1).
  simvm::ResourceVector canon = r.Expanded(num_dims());
  CacheKey key = MakeKey(tenant, canon);
  CacheShard& shard = ShardFor(key);
  {
    std::shared_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  long calls = 0;
  CacheValue value = Compute(tenant, canon, &calls);
  optimizer_calls_.fetch_add(calls, std::memory_order_relaxed);
  return Insert(key, tenant, canon, std::move(value));
}

double WhatIfCostEstimator::EstimateSeconds(int tenant,
                                            const simvm::ResourceVector& r) {
  return Lookup(tenant, r).est_seconds;
}

ThreadPool* WhatIfCostEstimator::pool() {
  std::lock_guard lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.batch_threads);
  }
  return pool_.get();
}

struct WhatIfCostEstimator::Miss {
  CacheKey key;
  int tenant;
  simvm::ResourceVector r;
  CacheValue value;
  long calls = 0;
};

void WhatIfCostEstimator::ComputeMissesVectorized(std::vector<Miss>* misses) {
  // Group misses by tenant (first-seen order): every probe of one tenant
  // prices the same workload, so one grid call per statement covers the
  // whole group.
  std::vector<int> group_tenant;
  std::vector<std::vector<size_t>> groups;
  for (size_t m = 0; m < misses->size(); ++m) {
    int tenant = (*misses)[m].tenant;
    size_t g = 0;
    while (g < group_tenant.size() && group_tenant[g] != tenant) ++g;
    if (g == group_tenant.size()) {
      group_tenant.push_back(tenant);
      groups.emplace_back();
    }
    groups[g].push_back(m);
  }

  // Calibrated parameter vectors per group member (Compute, the
  // single-probe path, derives them identically).
  std::vector<std::vector<simdb::EngineParams>> group_params(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[g])];
    group_params[g].reserve(groups[g].size());
    for (size_t m : groups[g]) {
      const Miss& miss = (*misses)[m];
      group_params[g].push_back(
          t.calibration->ParamsFor(miss.r, machine_.VmMemoryMb(miss.r)));
    }
  }

  // One task per (group, statement); each prices all group members.
  struct StmtTask {
    size_t group;
    size_t stmt;
  };
  std::vector<StmtTask> tasks;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[g])];
    for (size_t s = 0; s < t.workload.statements.size(); ++s) {
      tasks.push_back(StmtTask{g, s});
    }
  }
  std::vector<std::vector<double>> task_native(tasks.size());
  std::vector<std::vector<std::string>> task_sig(tasks.size());
  // task_of[g * max_stmts + s] would waste space; index per group instead.
  std::vector<std::vector<size_t>> task_of(groups.size());
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    task_of[tasks[ti].group].push_back(ti);
  }

  auto run_task = [&](size_t ti) {
    const StmtTask& task = tasks[ti];
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[task.group])];
    const auto& stmt = t.workload.statements[task.stmt];
    std::vector<simdb::OptimizeResult> results =
        t.engine->WhatIfOptimizeGrid(stmt.query, group_params[task.group]);
    std::vector<double>& native = task_native[ti];
    std::vector<std::string>& sig = task_sig[ti];
    native.resize(results.size());
    sig.resize(results.size());
    for (size_t j = 0; j < results.size(); ++j) {
      native[j] = results[j].native_cost;
      sig[j] = std::move(results[j].signature);
    }
  };

  if (tasks.size() > 1) {
    // Largest probe groups first (LPT): one big tenant picked up last
    // would leave one worker grinding alone at the tail.
    std::vector<size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return groups[tasks[a].group].size() > groups[tasks[b].group].size();
    });
    pool()->ParallelForOrder(order, run_task);
  } else if (tasks.size() == 1) {
    run_task(0);
  }

  // Assemble per-miss totals in statement order — the exact accumulation
  // (and string concatenation) sequence of the single-probe Compute.
  for (size_t g = 0; g < groups.size(); ++g) {
    const Tenant& t = tenants_[static_cast<size_t>(group_tenant[g])];
    for (size_t j = 0; j < groups[g].size(); ++j) {
      Miss& miss = (*misses)[groups[g][j]];
      double total = 0.0;
      std::string signature;
      for (size_t s = 0; s < t.workload.statements.size(); ++s) {
        const auto& stmt = t.workload.statements[s];
        size_t ti = task_of[g][s];
        total += t.calibration->ToSeconds(task_native[ti][j], miss.r) *
                 stmt.frequency;
        signature += task_sig[ti][j];
        signature += ';';
      }
      miss.value = CacheValue{total, std::move(signature)};
      miss.calls = static_cast<long>(t.workload.statements.size());
    }
  }
}

std::vector<double> WhatIfCostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  // Partition the batch into cache hits and distinct misses (first
  // occurrence wins, exactly as a sequential run would).
  std::vector<Miss> misses;
  // Per-item: index into `misses` for the FIRST occurrence of an uncached
  // key, -1 for cached keys and later duplicates (which replay as cache
  // hits below, exactly like a sequential run).
  std::vector<int> miss_index(batch.size(), -1);
  std::unordered_map<CacheKey, int, CacheKeyHash> pending;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int tenant = batch[i].tenant;
    VDBA_CHECK_GE(tenant, 0);
    VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
    simvm::ResourceVector r = batch[i].r.Expanded(num_dims());
    VDBA_CHECK_MSG(r.Valid(), "invalid allocation %s", r.ToString().c_str());
    CacheKey key = MakeKey(tenant, r);
    {
      CacheShard& shard = ShardFor(key);
      std::shared_lock lock(shard.mu);
      if (shard.map.contains(key)) continue;
    }
    auto [it, inserted] =
        pending.emplace(key, static_cast<int>(misses.size()));
    if (inserted) {
      misses.push_back(Miss{key, tenant, r, CacheValue{}, 0});
      miss_index[i] = it->second;
    }
  }

  // One miss fan-out at a time: the pool rejects concurrent ParallelFor
  // submissions, and serializing here keeps concurrent EstimateMany
  // callers safe without a pool redesign.
  if (!misses.empty()) {
    std::lock_guard batch_lock(batch_mu_);
    ComputeMissesVectorized(&misses);
  }

  // Commit results in the order a sequential run would have: walk the
  // items, inserting each first-seen miss, counting later duplicates and
  // pre-existing entries as cache hits.
  std::vector<double> out(batch.size(), 0.0);
  for (size_t i = 0; i < batch.size(); ++i) {
    int m = miss_index[i];
    if (m >= 0) {
      Miss& miss = misses[static_cast<size_t>(m)];
      optimizer_calls_.fetch_add(miss.calls, std::memory_order_relaxed);
      out[i] = Insert(miss.key, miss.tenant, miss.r, std::move(miss.value))
                   .est_seconds;
    } else {
      out[i] = Lookup(batch[i].tenant, batch[i].r).est_seconds;
    }
  }
  return out;
}

void WhatIfCostEstimator::SetWorkload(int tenant, simdb::Workload workload) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  tenants_[static_cast<size_t>(tenant)].workload = std::move(workload);
  InvalidateTenant(tenant);
}

void WhatIfCostEstimator::InvalidateTenant(int tenant) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  {
    std::lock_guard lock(observations_mu_);
    observations_[static_cast<size_t>(tenant)].clear();
  }
  // Drop exactly this tenant's cache entries; other tenants stay warm.
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->first.tenant == tenant) {
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

int WhatIfCostEstimator::AddTenant(Tenant tenant) {
  ValidateTenant(tenant);
  tenants_.push_back(std::move(tenant));
  {
    std::lock_guard lock(observations_mu_);
    observations_.emplace_back();
  }
  return static_cast<int>(tenants_.size()) - 1;
}

void WhatIfCostEstimator::ReplaceTenant(int tenant, Tenant replacement) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  ValidateTenant(replacement);
  tenants_[static_cast<size_t>(tenant)] = std::move(replacement);
  InvalidateTenant(tenant);
}

}  // namespace vdba::advisor
