#include "advisor/cost_estimator.h"

#include <algorithm>
#include <bit>
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

/// splitmix64's finalizer.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

WhatIfCostEstimator::WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                                         std::vector<Tenant> tenants,
                                         WhatIfEstimatorOptions options)
    : machine_(machine), options_(options), tenants_(std::move(tenants)) {
  VDBA_CHECK(!tenants_.empty());
  for (const Tenant& t : tenants_) ValidateTenant(t);
  observations_.resize(tenants_.size());
  std::lock_guard lock(batch_mu_);
  tenant_classes_.resize(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    ResolveStatements(static_cast<int>(i));
  }
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

simvm::ResourceVector WhatIfCostEstimator::Canonical(
    int tenant, const simvm::ResourceVector& r) const {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  simvm::ResourceVector canon = r.Expanded(num_dims());
  VDBA_CHECK_MSG(canon.Valid(), "invalid allocation %s",
                 canon.ToString().c_str());
  return canon;
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

bool WhatIfCostEstimator::CachedEstimate(const CacheKey& key, double* est) {
  CacheShard& shard = ShardFor(key);
  std::shared_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  *est = it->second;
  return true;
}

double WhatIfCostEstimator::Insert(const CacheKey& key, int tenant,
                                   const simvm::ResourceVector& r, double est,
                                   std::string signature) {
  CacheShard& shard = ShardFor(key);
  bool inserted = false;
  {
    std::unique_lock lock(shard.mu);
    auto [it, ins] = shard.map.emplace(key, est);
    est = it->second;
    inserted = ins;
  }
  if (inserted) {
    std::lock_guard lock(observations_mu_);
    observations_[static_cast<size_t>(tenant)].push_back(
        WhatIfObservation{r, est, std::move(signature)});
  }
  return est;
}

double WhatIfCostEstimator::EstimateSeconds(int tenant,
                                            const simvm::ResourceVector& r) {
  double est = 0.0;
  if (CachedEstimate(MakeKey(tenant, Canonical(tenant, r)), &est)) return est;
  const TenantAllocation item{tenant, r};
  return EstimateAll({&item, 1})[0];
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
  double est = 0.0;
  std::string signature;
};

size_t WhatIfCostEstimator::memo_entries() const {
  std::lock_guard lock(batch_mu_);
  return memo_size_;
}

int32_t WhatIfCostEstimator::InternAllocation(const Shares& shares) {
  auto slot_for = [this](const Shares& s) -> int32_t& {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (double share : s) h = Mix(h ^ std::bit_cast<uint64_t>(share));
    const size_t mask = alloc_index_.size() - 1;
    for (size_t i = static_cast<size_t>(h) & mask;; i = (i + 1) & mask) {
      int32_t& a = alloc_index_[i];
      if (a < 0 || memo_allocs_[static_cast<size_t>(a)] == s) return a;
    }
  };
  if (2 * (memo_allocs_.size() + 1) > alloc_index_.size()) {
    alloc_index_.assign(std::max<size_t>(16, 2 * alloc_index_.size()), -1);
    for (size_t a = 0; a < memo_allocs_.size(); ++a) {
      slot_for(memo_allocs_[a]) = static_cast<int32_t>(a);
    }
  }
  int32_t& slot = slot_for(shares);
  if (slot < 0) {
    slot = static_cast<int32_t>(memo_allocs_.size());
    memo_allocs_.push_back(shares);
  }
  return slot;
}

WhatIfCostEstimator::MemoEntry* WhatIfCostEstimator::MemoSlot(int32_t cls,
                                                              int32_t alloc) {
  const uint64_t h = Mix(
      (static_cast<uint64_t>(static_cast<uint32_t>(alloc)) << 32) |
      static_cast<uint32_t>(cls));
  const size_t mask = memo_.size() - 1;
  for (size_t i = static_cast<size_t>(h) & mask;; i = (i + 1) & mask) {
    MemoEntry& e = memo_[i];
    if (e.cls < 0 || (e.cls == cls && e.alloc == alloc)) return &e;
  }
}

void WhatIfCostEstimator::RebuildMemo(size_t capacity) {
  std::vector<MemoEntry> old(capacity, MemoEntry{0.0, 0, -1, 0});
  old.swap(memo_);
  for (const MemoEntry& e : old) {
    if (e.cls >= 0) *MemoSlot(e.cls, e.alloc) = e;
  }
}

void WhatIfCostEstimator::DropDeadEntries() {
  // Renumber the allocations that live entries still price, then rehash.
  std::vector<int32_t> renumbered(memo_allocs_.size(), -1);
  std::vector<Shares> kept;
  memo_size_ = 0;
  for (MemoEntry& e : memo_) {
    if (e.cls < 0) continue;
    if (classes_[static_cast<size_t>(e.cls)].refs == 0) {
      e.cls = -1;
      continue;
    }
    int32_t& a = renumbered[static_cast<size_t>(e.alloc)];
    if (a < 0) {
      a = static_cast<int32_t>(kept.size());
      kept.push_back(memo_allocs_[static_cast<size_t>(e.alloc)]);
    }
    e.alloc = a;
    ++memo_size_;
  }
  memo_allocs_ = {};
  alloc_index_ = {};
  for (const Shares& shares : kept) InternAllocation(shares);
  RebuildMemo(memo_.size());
}

int WhatIfCostEstimator::AcquireClass(const Tenant& t,
                                      const simdb::QuerySpec& query,
                                      int hint) {
  auto matches = [&](const StatementClass& c) {
    return c.refs > 0 && c.engine == t.engine &&
           c.calibration == t.calibration && c.query == query;
  };
  int found = -1;
  if (hint >= 0 && matches(classes_[static_cast<size_t>(hint)])) {
    found = hint;
  }
  int free_slot = -1;
  for (size_t c = 0; found < 0 && c < classes_.size(); ++c) {
    if (matches(classes_[c])) found = static_cast<int>(c);
    if (free_slot < 0 && classes_[c].refs == 0) {
      free_slot = static_cast<int>(c);
    }
  }
  if (found < 0) {
    if (free_slot < 0) {
      free_slot = static_cast<int>(classes_.size());
      classes_.emplace_back();
    }
    found = free_slot;
    classes_[static_cast<size_t>(found)] =
        StatementClass{t.engine, t.calibration, query, 0, {}};
  }
  ++classes_[static_cast<size_t>(found)].refs;
  return found;
}

void WhatIfCostEstimator::ResolveStatements(int tenant) {
  const Tenant& t = tenants_[static_cast<size_t>(tenant)];
  std::vector<int>& ids = tenant_classes_[static_cast<size_t>(tenant)];
  // Acquire before releasing, so a class the tenant keeps never drops.
  std::vector<int> resolved;
  resolved.reserve(t.workload.statements.size());
  for (size_t s = 0; s < t.workload.statements.size(); ++s) {
    resolved.push_back(AcquireClass(t, t.workload.statements[s].query,
                                    s < ids.size() ? ids[s] : -1));
  }
  bool dropped = false;
  for (int c : ids) {
    StatementClass& cls = classes_[static_cast<size_t>(c)];
    if (--cls.refs == 0) {
      cls = StatementClass{};
      dropped = true;
    }
  }
  ids = std::move(resolved);
  if (dropped && memo_size_ > 0) DropDeadEntries();
}

void WhatIfCostEstimator::PriceMisses(std::vector<Miss>* misses) {
  // One distinct statement evaluation of this batch: a memo hit, or a
  // memo miss priced below.
  struct Eval {
    double native_cost;
    int32_t signature;
  };
  // Memo misses of one class, each with the batch miss whose allocation
  // (and so whose calibrated parameters) it prices.
  struct ClassTask {
    int32_t cls;
    std::vector<size_t> evals;
    std::vector<size_t> source;
    std::vector<simdb::EngineParams> params;
  };
  // Size the memo for the batch's statements up front, so claimed slots
  // stay put: at most 3/4 full keeps linear probing short.
  size_t statements = 0;
  for (const Miss& miss : *misses) {
    statements += tenant_classes_[static_cast<size_t>(miss.tenant)].size();
  }
  size_t capacity = std::max<size_t>(16, memo_.size());
  while (4 * (memo_size_ + statements) > 3 * capacity) capacity *= 2;
  if (capacity != memo_.size()) RebuildMemo(capacity);

  std::vector<Eval> evals;
  evals.reserve(statements);
  std::vector<size_t> refs;  // per (miss, statement), flattened
  refs.reserve(statements);
  std::vector<ClassTask> tasks;
  std::vector<int> task_of(classes_.size(), -1);
  long priced = 0;  // memo misses: the evaluations the optimizer runs
  std::vector<int32_t> miss_alloc(misses->size(), -1);
  for (size_t m = 0; m < misses->size(); ++m) {
    const Miss& miss = (*misses)[m];
    const std::vector<int>& ids =
        tenant_classes_[static_cast<size_t>(miss.tenant)];
    if (ids.empty()) continue;
    Shares shares;
    for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
      shares[static_cast<size_t>(d)] = miss.r.share(d);
    }
    const int32_t alloc = miss_alloc[m] = InternAllocation(shares);
    for (int c : ids) {
      MemoEntry* e = MemoSlot(c, alloc);
      if (e->cls < 0) {
        // First sight of (class, allocation) in this batch: claim the
        // slot, marking it pending by a negative signature that names its
        // evaluation, so later statements of the batch find it.
        *e = MemoEntry{0.0, alloc, c,
                       -1 - static_cast<int32_t>(evals.size())};
        ++memo_size_;
        ++priced;
        int& t = task_of[static_cast<size_t>(c)];
        if (t < 0) {
          t = static_cast<int>(tasks.size());
          tasks.push_back(ClassTask{c, {}, {}, {}});
        }
        tasks[static_cast<size_t>(t)].evals.push_back(evals.size());
        tasks[static_cast<size_t>(t)].source.push_back(m);
        refs.push_back(evals.size());
        evals.push_back(Eval{0.0, -1});
      } else if (e->signature < 0) {
        refs.push_back(static_cast<size_t>(-1 - e->signature));
      } else {
        refs.push_back(evals.size());
        evals.push_back(Eval{e->native_cost, e->signature});
      }
    }
  }

  // Calibrated parameter vectors, derived once per batch miss that needs
  // any: they depend on the tenant's calibration and the allocation only.
  std::vector<int> miss_params(misses->size(), -1);
  std::vector<simdb::EngineParams> params;
  for (ClassTask& task : tasks) {
    task.params.reserve(task.source.size());
    for (size_t m : task.source) {
      int& p = miss_params[m];
      if (p < 0) {
        const Miss& miss = (*misses)[m];
        p = static_cast<int>(params.size());
        params.push_back(
            tenants_[static_cast<size_t>(miss.tenant)].calibration->ParamsFor(
                miss.r, machine_.VmMemoryMb(miss.r)));
      }
      task.params.push_back(params[static_cast<size_t>(p)]);
    }
  }

  auto run_task = [&](size_t ti) {
    const ClassTask& task = tasks[ti];
    StatementClass& cls = classes_[static_cast<size_t>(task.cls)];
    std::vector<simdb::OptimizeResult> results =
        cls.engine->WhatIfOptimizeGrid(cls.query, task.params);
    for (size_t j = 0; j < results.size(); ++j) {
      auto it = std::find(cls.signatures.begin(), cls.signatures.end(),
                          results[j].signature);
      const auto sig = static_cast<int32_t>(it - cls.signatures.begin());
      if (it == cls.signatures.end()) {
        cls.signatures.push_back(std::move(results[j].signature));
      }
      evals[task.evals[j]] = Eval{results[j].native_cost, sig};
    }
  };
  if (tasks.size() > 1) {
    // Largest classes first (LPT): one big class picked up last would
    // leave one worker grinding alone at the tail.
    std::vector<size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tasks[a].evals.size() > tasks[b].evals.size();
    });
    pool()->ParallelForOrder(order, run_task);
  } else if (tasks.size() == 1) {
    run_task(0);
  }
  optimizer_calls_.fetch_add(priced, std::memory_order_relaxed);

  // Settle the claimed slots.
  for (const ClassTask& task : tasks) {
    for (size_t j = 0; j < task.evals.size(); ++j) {
      MemoEntry* e = MemoSlot(task.cls, miss_alloc[task.source[j]]);
      e->native_cost = evals[task.evals[j]].native_cost;
      e->signature = evals[task.evals[j]].signature;
    }
  }

  // Assemble per-miss totals in statement order — the accumulation and
  // concatenation sequence every estimate has always used.
  size_t ref = 0;
  for (Miss& miss : *misses) {
    const Tenant& t = tenants_[static_cast<size_t>(miss.tenant)];
    const std::vector<int>& ids =
        tenant_classes_[static_cast<size_t>(miss.tenant)];
    double total = 0.0;
    std::string signature;
    for (size_t s = 0; s < ids.size(); ++s, ++ref) {
      const Eval& e = evals[refs[ref]];
      total += t.calibration->ToSeconds(e.native_cost, miss.r) *
               t.workload.statements[s].frequency;
      signature += classes_[static_cast<size_t>(ids[s])]
                       .signatures[static_cast<size_t>(e.signature)];
      signature += ';';
    }
    miss.est = total;
    miss.signature = std::move(signature);
  }
}

std::vector<double> WhatIfCostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  return EstimateAll(batch);
}

std::vector<double> WhatIfCostEstimator::EstimateAll(
    std::span<const TenantAllocation> batch) {
  // Partition the batch into cache hits and distinct misses (first
  // occurrence wins, exactly as a sequential run would).
  std::vector<Miss> misses;
  std::vector<CacheKey> keys;
  keys.reserve(batch.size());
  // Per-item: index into `misses` for the FIRST occurrence of an uncached
  // key, -1 for cached keys and later duplicates (which replay as cache
  // hits below, exactly like a sequential run).
  std::vector<int> miss_index(batch.size(), -1);
  std::unordered_map<CacheKey, int, CacheKeyHash> pending;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int tenant = batch[i].tenant;
    simvm::ResourceVector r = Canonical(tenant, batch[i].r);
    keys.push_back(MakeKey(tenant, r));
    {
      CacheShard& shard = ShardFor(keys[i]);
      std::shared_lock lock(shard.mu);
      if (shard.map.contains(keys[i])) continue;
    }
    auto [it, inserted] =
        pending.emplace(keys[i], static_cast<int>(misses.size()));
    if (inserted) {
      misses.push_back(Miss{keys[i], tenant, r, 0.0, {}});
      miss_index[i] = it->second;
    }
  }

  // One pricing at a time: the pool rejects concurrent ParallelFor
  // submissions, and the statement memo is guarded by the same mutex.
  if (!misses.empty()) {
    std::lock_guard batch_lock(batch_mu_);
    PriceMisses(&misses);
  }

  // Commit results in the order a sequential run would have: walk the
  // items, inserting each first-seen miss, counting later duplicates and
  // pre-existing entries as cache hits.
  std::vector<double> out(batch.size(), 0.0);
  for (size_t i = 0; i < batch.size(); ++i) {
    int m = miss_index[i];
    if (m >= 0) {
      Miss& miss = misses[static_cast<size_t>(m)];
      out[i] = Insert(miss.key, miss.tenant, miss.r, miss.est,
                      std::move(miss.signature));
    } else if (!CachedEstimate(keys[i], &out[i])) {
      // Dropped since the partition by a racing invalidation of this
      // tenant (outside the concurrency contract): price it afresh.
      out[i] = EstimateAll(batch.subspan(i, 1))[0];
    }
  }
  return out;
}

void WhatIfCostEstimator::SetWorkload(int tenant, simdb::Workload workload) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  {
    std::lock_guard lock(batch_mu_);
    tenants_[static_cast<size_t>(tenant)].workload = std::move(workload);
    ResolveStatements(tenant);
  }
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
  std::lock_guard lock(batch_mu_);
  tenant_classes_.emplace_back();
  ResolveStatements(static_cast<int>(tenants_.size()) - 1);
  return static_cast<int>(tenants_.size()) - 1;
}

void WhatIfCostEstimator::ReplaceTenant(int tenant, Tenant replacement) {
  VDBA_CHECK_GE(tenant, 0);
  VDBA_CHECK_LT(static_cast<size_t>(tenant), tenants_.size());
  ValidateTenant(replacement);
  {
    std::lock_guard lock(batch_mu_);
    tenants_[static_cast<size_t>(tenant)] = std::move(replacement);
    ResolveStatements(tenant);
  }
  InvalidateTenant(tenant);
}

}  // namespace vdba::advisor
