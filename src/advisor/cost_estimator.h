// Cost estimation for the configuration enumerator (§4.1).
//
// CostEstimator is the abstract interface the enumerators consume.
// WhatIfCostEstimator implements it by driving each tenant's query
// optimizer in what-if mode through the calibrated R -> P mapping, with a
// per-(tenant, allocation) cache (the greedy search revisits allocations
// constantly). Every estimate is also logged as an observation — the
// (R, Est, plan-signature) stream from which online refinement later
// derives its piecewise models (§5.1: "we use the candidate resource
// allocations encountered during configuration enumeration to define the
// A_ij intervals").
#ifndef VDBA_ADVISOR_COST_ESTIMATOR_H_
#define VDBA_ADVISOR_COST_ESTIMATOR_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/tenant.h"
#include "simvm/hardware.h"
#include "simvm/resource_vector.h"
#include "util/thread_pool.h"

namespace vdba::advisor {

/// One (tenant, candidate allocation) probe inside a cross-tenant batch:
/// the unit of work of EstimateMany.
struct TenantAllocation {
  int tenant = 0;
  simvm::ResourceVector r;
};

/// \brief Abstract cost estimator: the one interface every search
/// strategy consumes.
///
/// An estimator answers "how many seconds would tenant i's workload take
/// at allocation R?" — by what-if optimization (WhatIfCostEstimator), by
/// fitted piecewise models (ModelCostEstimator), or by anything a test
/// fakes. Search strategies must route their probes through the batched
/// entry points (EstimateMany / EstimateBatch) so a parallel
/// implementation can fan them out.
class CostEstimator {
 public:
  virtual ~CostEstimator() = default;

  /// \brief Estimated seconds to complete tenant `tenant`'s workload at
  /// allocation `r`.
  ///
  /// Deterministic: the same (tenant, r, workload) must always yield the
  /// same value within one estimator instance — enumeration correctness
  /// (and the bit-identical batched-vs-sequential guarantee) depends on
  /// it. `r` may carry fewer dimensions than num_dims(); missing
  /// dimensions are unallocated (share 1.0).
  virtual double EstimateSeconds(int tenant,
                                 const simvm::ResourceVector& r) = 0;

  /// Number of tenants the estimator covers; `tenant` arguments must be
  /// in [0, num_tenants()).
  virtual int num_tenants() const = 0;

  /// \brief Resource dimensions the estimator models (the machine's M).
  ///
  /// Enumerators size their move loops and default allocations from this.
  /// Pure virtual on purpose: a stale hard-coded default here once
  /// silently shrank every enumeration loop of estimators that forgot to
  /// override it (derive it from the machine's ResourceModel where one
  /// exists).
  virtual int num_dims() const = 0;

  /// \brief Estimates for a batch of candidate allocations of one tenant.
  ///
  /// Contract: the returned vector is index-aligned with `candidates` and
  /// *semantically identical* to calling EstimateSeconds per candidate in
  /// order — same values, same observable side effects (caches,
  /// observation logs, counters) in the same order. The base
  /// implementation tags every candidate with `tenant` and hands the batch
  /// to EstimateMany, so an estimator that parallelizes EstimateMany
  /// parallelizes this too.
  virtual std::vector<double> EstimateBatch(
      int tenant, std::span<const simvm::ResourceVector> candidates);

  /// \brief Estimates for a tenant-tagged batch spanning several tenants
  /// — the full cross-tenant move frontier of one greedy iteration in a
  /// single fan-out.
  ///
  /// Contract: index-aligned with `batch` and semantically identical to
  /// calling EstimateSeconds per item in order; duplicates within the
  /// batch are allowed (later occurrences behave like repeat lookups).
  /// Implementations may parallelize across tenants as well as candidates
  /// provided results and side-effect order match the sequential run
  /// exactly — allocations produced through a parallel estimator must be
  /// bit-identical to the sequential ones. The default is sequential.
  virtual std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch);
};

/// One logged what-if estimate.
struct WhatIfObservation {
  simvm::ResourceVector allocation;
  double est_seconds = 0.0;
  /// Concatenated plan signatures of all workload statements; a change in
  /// this string marks a plan change (an A_ij interval boundary).
  std::string plan_signature;
};

/// WhatIfCostEstimator knobs.
struct WhatIfEstimatorOptions {
  /// Pool size for the EstimateBatch / EstimateMany fan-out: n workers,
  /// joined by the calling thread, so a fan-out runs on n + 1 threads; 0
  /// picks a small hardware-derived default. Results are identical for
  /// every thread count.
  int batch_threads = 0;
};

/// Calibrated what-if estimator over a set of tenants.
///
/// Thread safety: concurrent EstimateSeconds / EstimateBatch /
/// EstimateMany calls from multiple threads are safe — the cache is
/// sharded under reader-writer locks, the observation log and counters
/// are internally synchronized, and the what-if computation itself is
/// pure. SetWorkload and mutable_tenant are NOT safe concurrently with
/// estimation.
class WhatIfCostEstimator : public CostEstimator {
 public:
  WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                      std::vector<Tenant> tenants,
                      WhatIfEstimatorOptions options = WhatIfEstimatorOptions());
  ~WhatIfCostEstimator() override;

  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override;
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return machine_.resources->dims(); }

  /// Cross-tenant what-if estimation. Distinct uncached (tenant,
  /// allocation) probes are grouped by tenant and priced through
  /// WhatIfOptimizeGrid — one join enumeration per (statement,
  /// memory-context group) instead of one per probe; (tenant, statement)
  /// tasks fan out over the thread pool, heaviest groups first. Results,
  /// cache state, observation logs, and the optimizer-call/cache-hit
  /// counters are exactly those of the equivalent sequential run.
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override;

  const std::vector<Tenant>& tenants() const { return tenants_; }
  Tenant* mutable_tenant(int i) { return &tenants_[static_cast<size_t>(i)]; }

  /// Replaces a tenant's workload (dynamic changes, §6) and invalidates
  /// its cache and observation log.
  void SetWorkload(int tenant, simdb::Workload workload);

  // --- Resident-service mutation APIs (src/service/) -----------------------
  // Like SetWorkload, these are not safe concurrently with estimation OF
  // THE SAME tenant: the resident AdvisorService serializes each
  // tenant's events on its machine's lane. InvalidateTenant(t) alone is
  // additionally safe concurrently with estimation of tenants != t (see
  // below) — the guarantee concurrent lane repairs and Snapshot readers
  // lean on.

  /// \brief Drops exactly one tenant's cache entries and observation log;
  /// every other tenant's entries stay warm.
  ///
  /// This is the targeted-invalidation primitive incremental repair is
  /// built on: a tenant event (arrival, departure, drift, migration) must
  /// not cost the whole fleet its what-if cache. SetWorkload routes
  /// through it.
  ///
  /// Safe concurrently with estimation of OTHER tenants: eviction takes
  /// each shard's writer lock, the cache map is node-based (references to
  /// other tenants' entries stay valid across the erases), and estimates
  /// are pure functions of (machine, tenant, allocation) — so a racing
  /// disjoint reader can at worst recompute a value, never read a wrong
  /// one (tested by vectorized_probe_test
  /// InvalidateTenantIsSafeUnderDisjointReaders).
  void InvalidateTenant(int tenant);

  /// Appends a tenant (same validity requirements as the constructor) and
  /// returns its index. Existing indices, cache entries, and observation
  /// logs are untouched.
  int AddTenant(Tenant tenant);

  /// Replaces tenant `tenant` wholesale (engine, calibration, workload,
  /// QoS) and invalidates its cache entries and observation log — the
  /// slot-reuse primitive for departed tenants in a long-lived estimator.
  void ReplaceTenant(int tenant, Tenant replacement);

  /// Observation log for one tenant (insertion order).
  const std::vector<WhatIfObservation>& observations(int tenant) const {
    return observations_[static_cast<size_t>(tenant)];
  }

  /// Total optimizer invocations (per workload statement).
  long optimizer_calls() const {
    return optimizer_calls_.load(std::memory_order_relaxed);
  }
  /// Estimates served from cache.
  long cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

 private:
  struct CacheKey {
    int tenant;
    std::array<int, simvm::kMaxResourceDims> q;  // quantized shares
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  struct CacheValue {
    double est_seconds;
    std::string signature;
  };
  /// One cache shard: entries whose key hash lands on it, under a
  /// reader-writer lock. References into `map` stay valid across inserts
  /// (node-based container; only SetWorkload erases).
  struct CacheShard {
    std::shared_mutex mu;
    std::unordered_map<CacheKey, CacheValue, CacheKeyHash> map;
  };
  static constexpr size_t kCacheShards = 16;
  /// Cache-key quantization granularity in share units (0.1%; the
  /// enumerator moves in much larger steps, default 5%).
  static constexpr double kCacheGranularity = 0.001;

  struct Miss;  // one distinct uncached probe of an EstimateMany batch

  CacheKey MakeKey(int tenant, const simvm::ResourceVector& r) const;
  CacheShard& ShardFor(const CacheKey& key) {
    return cache_shards_[CacheKeyHash{}(key) % kCacheShards];
  }
  /// Pure what-if computation for one probe (no cache/log mutation;
  /// thread-safe): a one-member WhatIfOptimize per statement.
  CacheValue Compute(int tenant, const simvm::ResourceVector& r,
                     long* calls) const;
  /// Fills every miss's value via the batched what-if kernel: misses
  /// grouped by tenant, one WhatIfOptimizeGrid call per (group,
  /// statement) task, tasks fanned over the pool. Bit-identical to
  /// calling Compute per miss.
  void ComputeMissesVectorized(std::vector<Miss>* misses);
  /// Inserts a computed value into cache + observation log. If another
  /// thread committed the key first, the existing entry wins (values are
  /// deterministic, so they agree) and no duplicate observation is
  /// logged.
  const CacheValue& Insert(const CacheKey& key, int tenant,
                           const simvm::ResourceVector& r, CacheValue value);
  const CacheValue& Lookup(int tenant, const simvm::ResourceVector& r);
  ThreadPool* pool();

  simvm::PhysicalMachine machine_;
  WhatIfEstimatorOptions options_;
  std::vector<Tenant> tenants_;
  std::vector<std::vector<WhatIfObservation>> observations_;
  std::mutex observations_mu_;
  std::array<CacheShard, kCacheShards> cache_shards_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;  ///< Lazily created on first batch.
  /// Serializes miss fan-outs: ThreadPool rejects concurrent ParallelFor
  /// submissions, so when several threads hit EstimateMany at once, one
  /// computes its misses while the others wait their turn (values are
  /// deterministic, so recomputing a key another batch already filled is
  /// wasted work at worst, never a wrong answer).
  std::mutex batch_mu_;
  std::atomic<long> optimizer_calls_{0};
  std::atomic<long> cache_hits_{0};
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_COST_ESTIMATOR_H_
