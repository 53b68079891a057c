// Shared declarations of the repository benchmark (see ../README.md).
//
// One process runs one workload for one seed: it builds its inputs from the
// seed, sets up (several times, reporting the median), runs a timed window,
// checks every output, and prints one JSON result line. With tracing off
// the result holds the end-to-end metrics; with tracing on it holds the
// per-layer metrics, measured by timing calls into each layer's public
// functions from this directory's own code.
#ifndef VDBA_PERFBENCH_BENCH_H_
#define VDBA_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed window (the event workloads' open-loop stream).
  int seconds = 10;
  bool trace = false;
  /// Offered open-loop drift rate, events per second.
  double drift_rate = 0.0;
  /// Directory the traced run writes its spans to.
  std::string trace_dir;
};

/// What one run reports: output checks, operation counts and metrics.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check makes the run incorrect.
  void Expect(bool ok, const std::string& what);
  /// Counts operations attempted and operations refused or errored.
  void Count(long attempted, long failed);

  bool correct() const { return correct_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
};

/// End-to-end figures of one untraced run; README.md defines each.
struct EndToEnd {
  /// Median latency of one plan or solve, or of one event from its due
  /// time to the moment its outcome resolved.
  double latency_ms_p50 = 0.0;
  double throughput_per_sec = 0.0;
  double cpu_ms_per_op = 0.0;
  double objective = 0.0;
  /// Share of the degradation limits the final state meets (1 when the
  /// workload sets none).
  double qos_met_frac = 1.0;
  double setup_s = 0.0;
};
/// Adds every end-to-end metric (the peak RSS since the window began,
/// measured now). A traced run instead adds every per-layer metric
/// itself, with 0 for one its workload does not exercise; run.py checks
/// both lists against BENCHMARK.json.
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Where the traced run writes its spans.
std::string SpanPath(const Args& args);

void RunFleetPlan(const Args& args, Report* report);
void RunEventDrift(const Args& args, Report* report);

}  // namespace perfbench

#endif  // VDBA_PERFBENCH_BENCH_H_
