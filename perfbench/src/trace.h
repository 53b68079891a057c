// In-memory span tracing for the traced run, recorded from the
// benchmark's own code around each call into a layer's public functions:
// op -> fleet.* / advisor Recommend -> SearchStrategy::Run -> estimator.
//
// A span has a name, a start and an end, the span that caused it, and the
// request (operation) it belongs to. Spans are kept in memory and written
// out when the run ends. A layer's self time is its spans' durations minus
// the part of each span that its child spans cover.
#ifndef VDBA_PERFBENCH_TRACE_H_
#define VDBA_PERFBENCH_TRACE_H_

#include <atomic>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "advisor/cost_estimator.h"

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root span.
  long request = 0;
  const char* name = "";
  double start = 0.0;  ///< Seconds on the monotonic clock.
  double end = 0.0;
};

/// Collects spans from any thread. A disabled tracer records nothing, so
/// the same code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. The parent defaults to the innermost open span on this
  /// thread; pass one explicitly for work handed to another thread. The
  /// request id is inherited from the parent unless given.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int parent = kInherit,
          long request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
    const Scope* outer_ = nullptr;
    double open_cost_ = 0.0;
  };
  static constexpr int kInherit = -2;

  bool enabled() const { return enabled_; }
  /// Records a span whose start and end were taken elsewhere (an event
  /// submitted on one thread and seen resolved on another).
  void Add(const char* name, long request, double start, double end);
  std::vector<Span> spans() const;
  /// Seconds the tracer itself spent recording spans.
  double bookkeeping_seconds() const;
  /// Writes every span, one JSON object a line.
  bool Write(const std::string& path) const;

 private:
  void Record(const Span& span, double bookkeeping);

  const bool enabled_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  double bookkeeping_ = 0.0;  // guarded by mu_
};

/// Sum of the durations of the spans named `name`, seconds.
double TotalSeconds(const std::vector<Span>& spans, const char* name);
/// Sum of the self times of the spans named `name` (duration minus the
/// union of its children's intervals), seconds.
double SelfSeconds(const std::vector<Span>& spans, const char* name);

/// CostEstimator decorator that records one "estimator" span per call and
/// counts probes and fan-outs, forwarding every call unchanged so results
/// stay bit-identical to the undecorated estimator.
class TracingEstimator : public vdba::advisor::CostEstimator {
 public:
  TracingEstimator(vdba::advisor::CostEstimator* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  double EstimateSeconds(int tenant,
                         const vdba::simvm::ResourceVector& r) override;
  int num_tenants() const override { return inner_->num_tenants(); }
  int num_dims() const override { return inner_->num_dims(); }
  std::vector<double> EstimateBatch(
      int tenant,
      std::span<const vdba::simvm::ResourceVector> candidates) override;
  std::vector<double> EstimateMany(
      std::span<const vdba::advisor::TenantAllocation> batch) override;

  /// (tenant, allocation) estimates requested.
  long probes() const { return probes_.load(); }
  /// Batched calls (EstimateBatch / EstimateMany).
  long fanouts() const { return fanouts_.load(); }

 private:
  vdba::advisor::CostEstimator* inner_;
  Tracer* tracer_;
  std::atomic<long> probes_{0};
  std::atomic<long> fanouts_{0};
};

}  // namespace perfbench

#endif  // VDBA_PERFBENCH_TRACE_H_
