// Cost estimation for the configuration enumerator (§4.1).
//
// CostEstimator is the abstract interface the enumerators consume.
// WhatIfCostEstimator implements it by driving each tenant's query
// optimizer in what-if mode through the calibrated R -> P mapping, behind
// two caches: a per-(tenant, allocation) cache of workload totals (the
// greedy search revisits allocations constantly) and a per-(statement,
// allocation) memo of optimizer costs that tenants share and that
// outlives workload drift. Every estimate is also logged as an
// observation — the (R, Est, plan-signature) stream from which online
// refinement later derives its piecewise models (§5.1: "we use the
// candidate resource allocations encountered during configuration
// enumeration to define the A_ij intervals").
#ifndef VDBA_ADVISOR_COST_ESTIMATOR_H_
#define VDBA_ADVISOR_COST_ESTIMATOR_H_

#include <array>
#include <atomic>
#include <cstdint>
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

/// \brief Calibrated what-if estimator over a set of tenants.
///
/// A tenant's estimate at R is the frequency-weighted sum of its
/// statements' calibrated optimizer costs at R (§4.1). Two caches sit in
/// front of the optimizer:
///  - the tenant cache maps (tenant, R quantized to 0.1%) to the workload
///    total. A hit is one lookup; InvalidateTenant drops a tenant's
///    entries with its observation log.
///  - the statement memo maps (statement class, exact canonical R) to
///    the statement's native cost and plan signature, where a statement
///    class is (engine, calibration, QuerySpec by value). A statement's
///    cost at R depends on neither the tenant that runs it nor its
///    frequency, so tenants running the same statement share entries,
///    and a workload change keeps them: InvalidateTenant never touches
///    the memo, and a frequency-only drift re-prices from it without an
///    optimizer call. Entries of a class go when no tenant statement
///    references it any more (SetWorkload / ReplaceTenant).
/// A tenant-cache miss sums its statements in statement order from the
/// memo, pricing the memo's own misses first with one WhatIfOptimizeGrid
/// per statement class, so every estimate, observation and cache-hit
/// count equals a run without the memo.
///
/// Thread safety: concurrent EstimateSeconds / EstimateBatch /
/// EstimateMany calls from multiple threads are safe — the tenant cache
/// is sharded under reader-writer locks, the statement memo is read and
/// written only under one pricing mutex, the observation log and
/// counters are internally synchronized, and the what-if computation
/// itself is pure. The mutators below are not safe concurrently with
/// estimation of the tenant they change; see InvalidateTenant for what
/// may race.
class WhatIfCostEstimator : public CostEstimator {
 public:
  WhatIfCostEstimator(const simvm::PhysicalMachine& machine,
                      std::vector<Tenant> tenants,
                      WhatIfEstimatorOptions options = WhatIfEstimatorOptions());
  ~WhatIfCostEstimator() override;

  /// A tenant-cache hit is one lookup; a miss is priced as a one-item
  /// EstimateMany batch.
  double EstimateSeconds(int tenant, const simvm::ResourceVector& r) override;
  int num_tenants() const override {
    return static_cast<int>(tenants_.size());
  }
  int num_dims() const override { return machine_.resources->dims(); }

  /// Cross-tenant what-if estimation. Distinct tenant-cache misses are
  /// assembled from the statement memo; the memo's misses are priced
  /// through WhatIfOptimizeGrid, one join enumeration per (statement
  /// class, memory-context group) over every distinct allocation the
  /// batch needs of that class, classes fanned out over the thread pool,
  /// largest first. Results, cache state, observation logs, and the
  /// optimizer-call/cache-hit counters are exactly those of the
  /// equivalent sequential run.
  std::vector<double> EstimateMany(
      std::span<const TenantAllocation> batch) override;

  const std::vector<Tenant>& tenants() const { return tenants_; }

  /// Replaces a tenant's workload (dynamic changes, §6) and invalidates
  /// its tenant-cache entries and observation log. Statement-memo entries
  /// stay for every statement some tenant still runs.
  void SetWorkload(int tenant, simdb::Workload workload);

  // --- Resident-service mutation APIs (src/service/) -----------------------
  // Like SetWorkload, these are not safe concurrently with estimation OF
  // THE SAME tenant: the resident AdvisorService serializes each
  // tenant's events on its machine's lane. InvalidateTenant(t) and
  // SetWorkload(t) are additionally safe concurrently with estimation of
  // tenants != t (see below) — the guarantee concurrent lane repairs and
  // Snapshot readers lean on.

  /// \brief Drops exactly one tenant's tenant-cache entries and
  /// observation log; every other tenant's entries stay warm, and the
  /// statement memo is not touched.
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
  /// one. SetWorkload's statement bookkeeping and memo eviction run
  /// under the same mutex as the memo's readers. (Tested by
  /// vectorized_probe_test InvalidateTenantIsSafeUnderDisjointReaders.)
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

  /// Statement evaluations the optimizer actually ran: one per (statement
  /// class, allocation) the statement memo did not hold. Tenants sharing
  /// a statement, and re-pricings after a drift that kept a statement,
  /// cost none.
  long optimizer_calls() const {
    return optimizer_calls_.load(std::memory_order_relaxed);
  }
  /// Estimates served from the tenant cache.
  long cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Entries in the statement memo (for tests and memory accounting).
  size_t memo_entries() const;

 private:
  struct CacheKey {
    int tenant;
    std::array<int, simvm::kMaxResourceDims> q;  // quantized shares
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  /// One cache shard: entries whose key hash lands on it, under a
  /// reader-writer lock. References into `map` stay valid across inserts
  /// (node-based container; only InvalidateTenant erases).
  struct CacheShard {
    std::shared_mutex mu;
    std::unordered_map<CacheKey, double, CacheKeyHash> map;
  };
  static constexpr size_t kCacheShards = 16;
  /// Cache-key quantization granularity in share units (0.1%; the
  /// enumerator moves in much larger steps, default 5%).
  static constexpr double kCacheGranularity = 0.001;

  /// What a statement's what-if cost depends on besides the allocation
  /// (the machine is fixed per estimator). A slot whose `refs` is 0 is
  /// free and holds nothing.
  struct StatementClass {
    const simdb::DbEngine* engine = nullptr;
    const calib::CalibrationModel* calibration = nullptr;
    simdb::QuerySpec query;
    /// Tenant statements resolved to this class.
    int refs = 0;
    /// Distinct plan signatures of this class's memo entries.
    std::vector<std::string> signatures;
  };
  using Shares = std::array<double, simvm::kMaxResourceDims>;
  /// One statement-memo slot: a statement class priced at one of the
  /// memo's allocations.
  struct MemoEntry {
    double native_cost;
    int32_t alloc;      ///< index into memo_allocs_
    int32_t cls;        ///< statement class; -1 marks an empty slot
    int32_t signature;  ///< index into the class's signatures
  };

  struct Miss;  // one distinct uncached probe of an EstimateMany batch

  /// Validates a probe and returns its canonical allocation (missing
  /// dimensions unallocated = share 1, so observation logs are uniform).
  simvm::ResourceVector Canonical(int tenant,
                                  const simvm::ResourceVector& r) const;
  CacheKey MakeKey(int tenant, const simvm::ResourceVector& r) const;
  CacheShard& ShardFor(const CacheKey& key) {
    return cache_shards_[CacheKeyHash{}(key) % kCacheShards];
  }
  /// Reads a tenant-cache entry, counting the hit.
  bool CachedEstimate(const CacheKey& key, double* est);
  /// The batched miss path behind both EstimateSeconds and EstimateMany
  /// (non-virtual, so a subclass overriding EstimateMany on top of
  /// EstimateSeconds cannot recurse).
  std::vector<double> EstimateAll(std::span<const TenantAllocation> batch);
  /// Fills every miss's total and signature from the statement memo,
  /// first pricing the memo's misses: one WhatIfOptimizeGrid per statement
  /// class, classes fanned over the pool. Caller holds batch_mu_.
  void PriceMisses(std::vector<Miss>* misses);
  /// Inserts a computed value into cache + observation log (which takes
  /// the signature). If another thread committed the key first, the
  /// existing entry wins (values are deterministic, so they agree) and no
  /// duplicate observation is logged.
  double Insert(const CacheKey& key, int tenant,
                const simvm::ResourceVector& r, double est,
                std::string signature);
  ThreadPool* pool();

  // Statement classes and the memo; all under batch_mu_.
  /// Resolves tenant `tenant`'s statements to classes (matching its
  /// previous classes first), then releases the previous ones and drops
  /// the memo entries of every class left unreferenced.
  void ResolveStatements(int tenant);
  int AcquireClass(const Tenant& t, const simdb::QuerySpec& query, int hint);
  /// Index of `shares` in memo_allocs_, appended if new.
  int32_t InternAllocation(const Shares& shares);
  /// The slot holding (cls, alloc), or the empty slot where it belongs.
  MemoEntry* MemoSlot(int32_t cls, int32_t alloc);
  /// Rehashes the memo's entries into `capacity` slots (a power of two).
  void RebuildMemo(size_t capacity);
  /// Drops the entries of unreferenced classes, and the allocations no
  /// entry prices any more.
  void DropDeadEntries();

  simvm::PhysicalMachine machine_;
  WhatIfEstimatorOptions options_;
  std::vector<Tenant> tenants_;
  std::vector<std::vector<WhatIfObservation>> observations_;
  std::mutex observations_mu_;
  std::array<CacheShard, kCacheShards> cache_shards_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;  ///< Lazily created on first batch.
  /// Serializes miss pricing, and guards the statement classes and memo
  /// below: ThreadPool rejects concurrent ParallelFor submissions, so
  /// when several threads hit EstimateMany at once, one prices its misses
  /// while the others wait their turn (values are deterministic, so
  /// recomputing a key another batch already filled is wasted work at
  /// worst, never a wrong answer).
  mutable std::mutex batch_mu_;
  std::vector<StatementClass> classes_;
  /// Per tenant, the class of each workload statement.
  std::vector<std::vector<int>> tenant_classes_;
  /// The distinct canonical allocations the memo prices, indexed by an
  /// open-addressing table of their positions (-1 marks an empty slot).
  std::vector<Shares> memo_allocs_;
  std::vector<int32_t> alloc_index_;
  /// Open-addressing table over (class, allocation): linear probing,
  /// power-of-two size.
  std::vector<MemoEntry> memo_;
  size_t memo_size_ = 0;
  std::atomic<long> optimizer_calls_{0};
  std::atomic<long> cache_hits_{0};
};

}  // namespace vdba::advisor

#endif  // VDBA_ADVISOR_COST_ESTIMATOR_H_
