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

uint64_t HashShares(const std::array<double, simvm::kMaxResourceDims>& s) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (double share : s) h = Mix(h ^ std::bit_cast<uint64_t>(share));
  return h;
}

uint64_t HashEntry(int32_t cls, int32_t alloc) {
  return Mix((static_cast<uint64_t>(static_cast<uint32_t>(alloc)) << 32) |
             static_cast<uint32_t>(cls));
}

/// Linear probing over a power-of-two table of positions (-1 marks an
/// empty slot): the slot whose position `same` accepts, or the empty slot
/// where the probed key belongs.
template <typename Same>
size_t ProbeSlot(const std::vector<int32_t>& table, uint64_t hash,
                 const Same& same) {
  const size_t mask = table.size() - 1;
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    if (table[i] < 0 || same(table[i])) return i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// StatementMemo
// ---------------------------------------------------------------------------

StatementMemo::StatementMemo(const simvm::PhysicalMachine& machine)
    : memory_mb_(machine.memory_mb), resources_(machine.resources) {}

bool StatementMemo::Fits(const simvm::PhysicalMachine& machine) const {
  return machine.memory_mb == memory_mb_ && machine.resources == resources_;
}

size_t StatementMemo::entries() const {
  std::shared_lock lock(mu_);
  return size_;
}

size_t StatementMemo::classes() const {
  std::shared_lock lock(mu_);
  return static_cast<size_t>(
      std::count_if(classes_.begin(), classes_.end(),
                    [](const StatementClass& c) { return c.refs > 0; }));
}

size_t StatementMemo::AllocSlot(const Shares& shares) const {
  return ProbeSlot(alloc_index_, HashShares(shares), [&](int32_t a) {
    return allocs_[static_cast<size_t>(a)] == shares;
  });
}

int32_t StatementMemo::FindAllocation(const Shares& shares) const {
  if (allocs_.empty()) return -1;
  return alloc_index_[AllocSlot(shares)];
}

int32_t StatementMemo::InternAllocation(const Shares& shares) {
  if (2 * (allocs_.size() + 1) > alloc_index_.size()) {
    alloc_index_.assign(std::max<size_t>(16, 2 * alloc_index_.size()), -1);
    for (size_t a = 0; a < allocs_.size(); ++a) {
      alloc_index_[AllocSlot(allocs_[a])] = static_cast<int32_t>(a);
    }
  }
  int32_t& slot = alloc_index_[AllocSlot(shares)];
  if (slot < 0) {
    slot = static_cast<int32_t>(allocs_.size());
    allocs_.push_back(shares);
  }
  return slot;
}

size_t StatementMemo::EntrySlot(int32_t cls, int32_t alloc) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = static_cast<size_t>(HashEntry(cls, alloc)) & mask;;
       i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (e.cls < 0 || (e.cls == cls && e.alloc == alloc)) return i;
  }
}

const StatementMemo::Entry* StatementMemo::Find(int32_t cls,
                                                int32_t alloc) const {
  if (size_ == 0) return nullptr;
  const Entry& e = table_[EntrySlot(cls, alloc)];
  return e.cls < 0 ? nullptr : &e;
}

void StatementMemo::Rebuild(size_t capacity) {
  std::deque<Entry> old(capacity, Entry{0.0, 0, -1, 0});
  old.swap(table_);
  for (const Entry& e : old) {
    if (e.cls >= 0) table_[EntrySlot(e.cls, e.alloc)] = e;
  }
}

void StatementMemo::Reserve(size_t more) {
  size_t capacity = std::max<size_t>(16, table_.size());
  while (4 * (size_ + more) > 3 * capacity) capacity *= 2;
  if (capacity != table_.size()) Rebuild(capacity);
}

const StatementMemo::Entry& StatementMemo::Publish(int32_t cls,
                                                   const Shares& shares,
                                                   double native_cost,
                                                   std::string signature) {
  const int32_t alloc = InternAllocation(shares);
  Entry& e = table_[EntrySlot(cls, alloc)];
  if (e.cls >= 0) return e;  // published by another batch meanwhile
  std::vector<std::string>& sigs =
      classes_[static_cast<size_t>(cls)].signatures;
  auto it = std::find(sigs.begin(), sigs.end(), signature);
  const auto sig = static_cast<int32_t>(it - sigs.begin());
  if (it == sigs.end()) sigs.push_back(std::move(signature));
  e = Entry{native_cost, alloc, cls, sig};
  ++size_;
  return e;
}

void StatementMemo::DropDeadEntries() {
  // Renumber the allocations that live entries still price, then rehash.
  std::vector<int32_t> renumbered(allocs_.size(), -1);
  std::vector<Shares> kept;
  size_ = 0;
  for (Entry& e : table_) {
    if (e.cls < 0) continue;
    if (classes_[static_cast<size_t>(e.cls)].refs == 0) {
      e.cls = -1;
      continue;
    }
    int32_t& a = renumbered[static_cast<size_t>(e.alloc)];
    if (a < 0) {
      a = static_cast<int32_t>(kept.size());
      kept.push_back(allocs_[static_cast<size_t>(e.alloc)]);
    }
    e.alloc = a;
    ++size_;
  }
  allocs_ = {};
  alloc_index_ = {};
  for (const Shares& shares : kept) InternAllocation(shares);
  Rebuild(table_.size());
}

int StatementMemo::AcquireClass(const Tenant& t, const simdb::QuerySpec& query,
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

bool StatementMemo::ReleaseClasses(std::span<const int> classes) {
  bool dropped = false;
  for (int c : classes) {
    StatementClass& cls = classes_[static_cast<size_t>(c)];
    if (--cls.refs == 0) {
      cls = StatementClass{};
      dropped = true;
    }
  }
  return dropped;
}

std::vector<int> StatementMemo::Resolve(const Tenant& t,
                                        const std::vector<int>& previous) {
  std::unique_lock lock(mu_);
  // Acquire before releasing, so a class the tenant keeps never drops.
  std::vector<int> resolved;
  resolved.reserve(t.workload.statements.size());
  for (size_t s = 0; s < t.workload.statements.size(); ++s) {
    resolved.push_back(AcquireClass(t, t.workload.statements[s].query,
                                    s < previous.size() ? previous[s] : -1));
  }
  if (ReleaseClasses(previous) && size_ > 0) DropDeadEntries();
  return resolved;
}

void StatementMemo::Release(const std::vector<std::vector<int>>& classes) {
  std::unique_lock lock(mu_);
  bool dropped = false;
  for (const std::vector<int>& ids : classes) dropped |= ReleaseClasses(ids);
  if (dropped && size_ > 0) DropDeadEntries();
}

StatementMemo::Hold::Hold(std::shared_ptr<StatementMemo> memo,
                          std::vector<std::vector<int>> classes)
    : memo_(std::move(memo)), classes_(std::move(classes)) {
  std::unique_lock lock(memo_->mu_);
  for (const std::vector<int>& ids : classes_) {
    for (int c : ids) ++memo_->classes_[static_cast<size_t>(c)].refs;
  }
}

StatementMemo::Hold::~Hold() {
  // The memo's last owner frees it whole.
  if (memo_.use_count() > 1) memo_->Release(classes_);
}

// ---------------------------------------------------------------------------
// WhatIfCostEstimator
// ---------------------------------------------------------------------------

WhatIfCostEstimator::WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                                         std::vector<Tenant> tenants,
                                         WhatIfEstimatorOptions options,
                                         std::shared_ptr<StatementMemo> memo)
    : machine_(machine),
      options_(options),
      tenants_(std::move(tenants)),
      records_(tenants_.size()),
      memo_(memo != nullptr ? std::move(memo)
                            : std::make_shared<StatementMemo>(machine)) {
  VDBA_CHECK(!tenants_.empty());
  VDBA_CHECK_MSG(memo_->Fits(machine_),
                 "statement memo of another machine class (machine '%s')",
                 machine_.name.c_str());
  for (const Tenant& t : tenants_) ValidateTenant(t);
  std::lock_guard lock(batch_mu_);
  tenant_classes_.resize(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    ResolveStatements(static_cast<int>(i));
  }
}

WhatIfCostEstimator::~WhatIfCostEstimator() {
  // A private memo goes with the estimator; a shared one keeps serving
  // the others, minus the classes only this estimator referenced.
  if (memo_.use_count() > 1) memo_->Release(tenant_classes_);
}

StatementMemo::Hold WhatIfCostEstimator::HoldClasses() const {
  std::lock_guard lock(batch_mu_);
  return StatementMemo::Hold(memo_, tenant_classes_);
}

size_t WhatIfCostEstimator::CacheKeyHash::operator()(
    const CacheKey& k) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int qd : k) h = Mix(h ^ static_cast<uint32_t>(qd));
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
    const simvm::ResourceVector& r) {
  CacheKey key;
  for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
    key[static_cast<size_t>(d)] = static_cast<int>(
        std::lround(r.share(d) / kCacheGranularity));
  }
  return key;
}

double WhatIfCostEstimator::EstimateSeconds(int tenant,
                                            const simvm::ResourceVector& r) {
  const TenantAllocation item{tenant, r};
  return EstimateAll({&item, 1})[0];
}

ThreadPool* WhatIfCostEstimator::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.batch_threads);
  }
  return pool_.get();
}

struct WhatIfCostEstimator::Miss {
  CacheKey key;
  int tenant;
  simvm::ResourceVector r;
  size_t item;  ///< the batch item of its first occurrence
  double est = 0.0;
  std::string signature;
};

void WhatIfCostEstimator::ResolveStatements(int tenant) {
  std::vector<int>& ids = tenant_classes_[static_cast<size_t>(tenant)];
  ids = memo_->Resolve(tenants_[static_cast<size_t>(tenant)], ids);
}

void WhatIfCostEstimator::PriceMisses(std::vector<Miss>* misses) {
  using Shares = StatementMemo::Shares;
  // One distinct statement evaluation of this batch: a memo hit, or a
  // memo miss priced below. A miss is keyed by its class and the batch
  // miss whose allocation (and so whose calibrated parameters) it prices.
  struct Eval {
    double native_cost;
    int32_t signature;  ///< in the class's signatures; -1 until published
    int32_t cls;
    size_t miss;
  };
  // The memo misses of one class. The engine and query are the first
  // batch tenant's own (equal to the class's by definition, and stable
  // while batch_mu_ is held), so no memo state is read unlocked.
  struct ClassTask {
    int32_t cls;
    const simdb::DbEngine* engine;
    const simdb::QuerySpec* query;
    std::vector<size_t> evals;
    std::vector<simdb::EngineParams> params;
    /// Plan signatures of the priced evaluations, until published.
    std::vector<std::string> signatures;
  };
  const size_t n = misses->size();
  std::vector<Shares> shares(n);
  std::vector<uint64_t> hashes(n);
  size_t statements = 0;
  for (size_t m = 0; m < n; ++m) {
    const Miss& miss = (*misses)[m];
    for (int d = 0; d < simvm::kMaxResourceDims; ++d) {
      shares[m][static_cast<size_t>(d)] = miss.r.share(d);
    }
    hashes[m] = HashShares(shares[m]);
    statements += tenant_classes_[static_cast<size_t>(miss.tenant)].size();
  }

  std::vector<Eval> evals;
  evals.reserve(statements);
  std::vector<size_t> refs;  // per (miss, statement), flattened
  refs.reserve(statements);
  // Batch-local index of the memo misses, so a (class, allocation) the
  // batch needs twice is priced once; the memo itself holds only
  // published entries.
  std::vector<int32_t> pending;
  std::vector<ClassTask> tasks;
  std::vector<int> task_of;  // by class id
  // Concatenates each miss's plan signatures in statement order. Caller
  // holds the memo's lock.
  auto sign = [&] {
    size_t ref = 0;
    for (Miss& miss : *misses) {
      std::string signature;
      for (int c : tenant_classes_[static_cast<size_t>(miss.tenant)]) {
        signature += memo_->signature(c, evals[refs[ref++]].signature);
        signature += ';';
      }
      miss.signature = std::move(signature);
    }
  };

  {
    std::shared_lock lock(memo_->mu_);
    for (size_t m = 0; m < n; ++m) {
      const Tenant& t = tenants_[static_cast<size_t>((*misses)[m].tenant)];
      const std::vector<int>& ids =
          tenant_classes_[static_cast<size_t>((*misses)[m].tenant)];
      const int32_t alloc = memo_->FindAllocation(shares[m]);
      for (size_t s = 0; s < ids.size(); ++s) {
        const int32_t c = ids[s];
        const StatementMemo::Entry* hit =
            alloc < 0 ? nullptr : memo_->Find(c, alloc);
        if (hit != nullptr) {
          refs.push_back(evals.size());
          evals.push_back(Eval{hit->native_cost, hit->signature, c, m});
          continue;
        }
        if (pending.empty()) {
          pending.assign(std::max<size_t>(16, std::bit_ceil(2 * statements)),
                         -1);
        }
        const size_t slot =
            ProbeSlot(pending, Mix(hashes[m] + static_cast<uint64_t>(c)),
                      [&](int32_t e) {
                        const Eval& other = evals[static_cast<size_t>(e)];
                        return other.cls == c && shares[other.miss] == shares[m];
                      });
        if (pending[slot] < 0) {
          pending[slot] = static_cast<int32_t>(evals.size());
          if (static_cast<size_t>(c) >= task_of.size()) {
            task_of.resize(static_cast<size_t>(c) + 1, -1);
          }
          int& ti = task_of[static_cast<size_t>(c)];
          if (ti < 0) {
            ti = static_cast<int>(tasks.size());
            tasks.push_back(ClassTask{c, t.engine,
                                      &t.workload.statements[s].query,
                                      {}, {}, {}});
          }
          tasks[static_cast<size_t>(ti)].evals.push_back(evals.size());
          evals.push_back(Eval{0.0, -1, c, m});
        }
        refs.push_back(static_cast<size_t>(pending[slot]));
      }
    }
    if (tasks.empty()) sign();
  }

  if (!tasks.empty()) {
    // Calibrated parameter vectors, derived once per batch miss that
    // needs any: they depend on the class's calibration (the miss's
    // tenant's) and the allocation only.
    std::vector<int> miss_params(n, -1);
    std::vector<simdb::EngineParams> params;
    size_t priced = 0;
    for (ClassTask& task : tasks) {
      task.params.reserve(task.evals.size());
      for (size_t e : task.evals) {
        const size_t m = evals[e].miss;
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
      priced += task.evals.size();
    }

    // Price with no memo lock held. Each task keeps only the costs and
    // signatures, so its plans are freed on the thread that built them.
    auto run_task = [&](size_t ti) {
      ClassTask& task = tasks[ti];
      std::vector<simdb::OptimizeResult> results =
          task.engine->WhatIfOptimizeGrid(*task.query, task.params);
      task.signatures.reserve(results.size());
      for (size_t j = 0; j < results.size(); ++j) {
        evals[task.evals[j]].native_cost = results[j].native_cost;
        task.signatures.push_back(std::move(results[j].signature));
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
    } else {
      run_task(0);
    }
    optimizer_calls_.fetch_add(static_cast<long>(priced),
                               std::memory_order_relaxed);

    std::unique_lock lock(memo_->mu_);
    memo_->Reserve(priced);
    for (ClassTask& task : tasks) {
      for (size_t j = 0; j < task.evals.size(); ++j) {
        Eval& e = evals[task.evals[j]];
        const StatementMemo::Entry& entry =
            memo_->Publish(task.cls, shares[e.miss], e.native_cost,
                           std::move(task.signatures[j]));
        e.native_cost = entry.native_cost;
        e.signature = entry.signature;
      }
    }
    sign();
  }

  // Per-miss totals in statement order — the accumulation sequence every
  // estimate has always used.
  size_t ref = 0;
  for (Miss& miss : *misses) {
    const Tenant& t = tenants_[static_cast<size_t>(miss.tenant)];
    double total = 0.0;
    for (const simdb::WorkloadStatement& stmt : t.workload.statements) {
      total += t.calibration->ToSeconds(evals[refs[ref++]].native_cost,
                                        miss.r) *
               stmt.frequency;
    }
    miss.est = total;
  }
}

std::vector<double> WhatIfCostEstimator::EstimateMany(
    std::span<const TenantAllocation> batch) {
  return EstimateAll(batch);
}

std::vector<double> WhatIfCostEstimator::EstimateAll(
    std::span<const TenantAllocation> batch) {
  // One pass over the batch: a cached item takes its value, and the first
  // occurrence of an uncached (tenant, key) becomes a miss that later
  // occurrences wait for.
  std::vector<double> out(batch.size(), 0.0);
  std::vector<Miss> misses;
  std::vector<int32_t> miss_of;  // per item: its miss, -1 for a hit
  std::vector<int32_t> pending;  // (tenant, key) -> miss, open addressing
  long hits = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int tenant = batch[i].tenant;
    const simvm::ResourceVector r = Canonical(tenant, batch[i].r);
    const CacheKey key = MakeKey(r);
    TenantRecord& record = records_[static_cast<size_t>(tenant)];
    {
      std::shared_lock lock(record.mu);
      auto it = record.cache.find(key);
      if (it != record.cache.end()) {
        out[i] = it->second;
        ++hits;
        continue;
      }
    }
    if (misses.empty()) {
      miss_of.assign(batch.size(), -1);
      pending.assign(std::max<size_t>(16, std::bit_ceil(2 * batch.size())),
                     -1);
    }
    const size_t slot = ProbeSlot(
        pending, Mix(CacheKeyHash{}(key) + static_cast<uint64_t>(tenant)),
        [&](int32_t m) {
          const Miss& other = misses[static_cast<size_t>(m)];
          return other.tenant == tenant && other.key == key;
        });
    if (pending[slot] < 0) {
      pending[slot] = static_cast<int32_t>(misses.size());
      misses.push_back(Miss{key, tenant, r, i, 0.0, {}});
    }
    miss_of[i] = pending[slot];
  }

  if (!misses.empty()) {
    {
      std::lock_guard batch_lock(batch_mu_);
      PriceMisses(&misses);
    }
    // Commit in item order, as a sequential run would: a miss's first
    // occurrence inserts it, later ones are hits on the committed value.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (miss_of[i] < 0) continue;
      Miss& miss = misses[static_cast<size_t>(miss_of[i])];
      if (miss.item == i) {
        miss.est = Insert(&miss);
      } else {
        ++hits;
      }
      out[i] = miss.est;
    }
  }
  cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  return out;
}

double WhatIfCostEstimator::Insert(Miss* miss) {
  TenantRecord& record = records_[static_cast<size_t>(miss->tenant)];
  std::unique_lock lock(record.mu);
  auto [it, inserted] = record.cache.emplace(miss->key, miss->est);
  if (inserted) {
    record.observations.push_back(
        WhatIfObservation{miss->r, miss->est, std::move(miss->signature)});
  }
  return it->second;
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
  // clear() keeps the map's buckets for the re-pricing that follows.
  TenantRecord& record = records_[static_cast<size_t>(tenant)];
  std::unique_lock lock(record.mu);
  record.cache.clear();
  record.observations.clear();
}

int WhatIfCostEstimator::AddTenant(Tenant tenant) {
  ValidateTenant(tenant);
  tenants_.push_back(std::move(tenant));
  records_.emplace_back();
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
