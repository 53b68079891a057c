#include "simdb/cost_model_db2.h"

#include "util/check.h"

namespace vdba::simdb {

double Db2CostModel::NativeCost(const Activity& a,
                                const EngineParams& params) const {
  VDBA_CHECK(std::holds_alternative<Db2Params>(params));
  const Db2Params& p = std::get<Db2Params>(params);
  double instr =
      weights_.ModeledInstructions(a.tuples, a.op_evals, a.index_tuples);
  double ms = instr * p.cpuspeed_ms_per_instr;
  ms += a.rand_pages * (p.overhead_ms + p.transfer_rate_ms);
  ms += (a.seq_pages + a.spill_pages + a.write_pages) * p.transfer_rate_ms;
  ms += a.net_pages * p.net_transfer_ms;
  // Row return, logging, and lock contention are unmodeled (§7.8).
  return ms / kMsPerTimeron;
}

namespace {

/// Struct-of-arrays over the priced Table III parameters. The modeled
/// instruction count is parameter-independent and computed once per
/// Price(); each out[k] then accumulates in exactly NativeCost's order
/// (the per-member random-I/O cost overhead+transfer is precomputed — the
/// scalar expression yields the identical double every time).
class Db2BatchPricer : public BatchPricer {
 public:
  Db2BatchPricer(CpuEventWeights weights, std::span<const EngineParams> params)
      : weights_(weights) {
    cpuspeed_.reserve(params.size());
    for (const EngineParams& ep : params) {
      VDBA_CHECK(std::holds_alternative<Db2Params>(ep));
      const Db2Params& p = std::get<Db2Params>(ep);
      cpuspeed_.push_back(p.cpuspeed_ms_per_instr);
      rand_cost_.push_back(p.overhead_ms + p.transfer_rate_ms);
      transfer_rate_.push_back(p.transfer_rate_ms);
      net_transfer_.push_back(p.net_transfer_ms);
    }
  }

  void Price(const Activity& a, std::span<double> out) const override {
    const size_t k_count = cpuspeed_.size();
    VDBA_CHECK_EQ(out.size(), k_count);
    const double instr =
        weights_.ModeledInstructions(a.tuples, a.op_evals, a.index_tuples);
    const double seq = a.seq_pages + a.spill_pages + a.write_pages;
    for (size_t k = 0; k < k_count; ++k) out[k] = instr * cpuspeed_[k];
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.rand_pages * rand_cost_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += seq * transfer_rate_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.net_pages * net_transfer_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] = out[k] / Db2CostModel::kMsPerTimeron;
    }
  }

 private:
  CpuEventWeights weights_;
  std::vector<double> cpuspeed_;
  std::vector<double> rand_cost_;
  std::vector<double> transfer_rate_;
  std::vector<double> net_transfer_;
};

}  // namespace

std::unique_ptr<BatchPricer> Db2CostModel::MakeBatchPricer(
    std::span<const EngineParams> params) const {
  return std::make_unique<Db2BatchPricer>(weights_, params);
}

MemoryContext Db2CostModel::EstimationContext(
    const EngineParams& params) const {
  VDBA_CHECK(std::holds_alternative<Db2Params>(params));
  const Db2Params& p = std::get<Db2Params>(params);
  MemoryContext mem;
  mem.work_mem_bytes = ModeledSortMemMb(p.sortheap_mb) * 1024.0 * 1024.0;
  // DB2 does not count on the OS cache (it uses direct I/O); only the
  // bufferpool caches pages.
  mem.buffer_bytes = p.bufferpool_mb * 1024.0 * 1024.0;
  return mem;
}

MemoryContext Db2CostModel::ExecutionContext(
    const EngineParams& params) const {
  VDBA_CHECK(std::holds_alternative<Db2Params>(params));
  const Db2Params& p = std::get<Db2Params>(params);
  MemoryContext mem;
  mem.work_mem_bytes = p.sortheap_mb * 1024.0 * 1024.0;  // full benefit
  mem.buffer_bytes = p.bufferpool_mb * 1024.0 * 1024.0;
  return mem;
}

}  // namespace vdba::simdb
