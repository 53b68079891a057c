#include "simdb/cost_model_pg.h"

#include "util/check.h"

namespace vdba::simdb {

double PgCostModel::NativeCost(const Activity& a,
                               const EngineParams& params) const {
  VDBA_CHECK(std::holds_alternative<PgParams>(params));
  const PgParams& p = std::get<PgParams>(params);
  double cost = 0.0;
  cost += (a.seq_pages + a.spill_pages + a.write_pages) * 1.0;
  cost += a.rand_pages * p.random_page_cost;
  cost += a.tuples * p.cpu_tuple_cost;
  cost += a.op_evals * p.cpu_operator_cost;
  cost += a.index_tuples * p.cpu_index_tuple_cost;
  cost += a.net_pages * p.net_page_cost;
  // Row-return and WAL costs are deliberately NOT modeled: real optimizers
  // omit them because they are plan-invariant (§4.3), and their absence is
  // one of the estimation errors online refinement corrects.
  return cost;
}

namespace {

/// Struct-of-arrays over the priced Table II parameters. Each out[k]
/// accumulates in exactly the order NativeCost uses, so the results are
/// bit-identical; the parameter-independent page sum is hoisted (the
/// scalar expression computes the identical intermediate double).
class PgBatchPricer : public BatchPricer {
 public:
  explicit PgBatchPricer(std::span<const EngineParams> params) {
    random_page_cost_.reserve(params.size());
    for (const EngineParams& ep : params) {
      VDBA_CHECK(std::holds_alternative<PgParams>(ep));
      const PgParams& p = std::get<PgParams>(ep);
      random_page_cost_.push_back(p.random_page_cost);
      cpu_tuple_cost_.push_back(p.cpu_tuple_cost);
      cpu_operator_cost_.push_back(p.cpu_operator_cost);
      cpu_index_tuple_cost_.push_back(p.cpu_index_tuple_cost);
      net_page_cost_.push_back(p.net_page_cost);
    }
  }

  void Price(const Activity& a, std::span<double> out) const override {
    const size_t k_count = random_page_cost_.size();
    VDBA_CHECK_EQ(out.size(), k_count);
    const double seq = a.seq_pages + a.spill_pages + a.write_pages;
    for (size_t k = 0; k < k_count; ++k) out[k] = seq * 1.0;
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.rand_pages * random_page_cost_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.tuples * cpu_tuple_cost_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.op_evals * cpu_operator_cost_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.index_tuples * cpu_index_tuple_cost_[k];
    }
    for (size_t k = 0; k < k_count; ++k) {
      out[k] += a.net_pages * net_page_cost_[k];
    }
  }

 private:
  std::vector<double> random_page_cost_;
  std::vector<double> cpu_tuple_cost_;
  std::vector<double> cpu_operator_cost_;
  std::vector<double> cpu_index_tuple_cost_;
  std::vector<double> net_page_cost_;
};

}  // namespace

std::unique_ptr<BatchPricer> PgCostModel::MakeBatchPricer(
    std::span<const EngineParams> params) const {
  return std::make_unique<PgBatchPricer>(params);
}

MemoryContext PgCostModel::EstimationContext(
    const EngineParams& params) const {
  VDBA_CHECK(std::holds_alternative<PgParams>(params));
  const PgParams& p = std::get<PgParams>(params);
  MemoryContext mem;
  mem.work_mem_bytes = p.work_mem_mb * 1024.0 * 1024.0;
  // PostgreSQL counts on the OS cache in addition to shared_buffers; the
  // optimizer reflects this through effective_cache_size.
  mem.buffer_bytes =
      (p.shared_buffers_mb + p.effective_cache_size_mb) * 1024.0 * 1024.0;
  // PostgreSQL's model tracks the full benefit of work_mem (no cap), but
  // work_mem itself is pinned at 5 MB by the administrator policy, so plans
  // barely react to VM memory — matching the paper's setup where memory
  // experiments use DB2.
  return mem;
}

}  // namespace vdba::simdb
