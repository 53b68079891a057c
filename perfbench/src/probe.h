// Clocks, order statistics and host/process samplers of the benchmark.
#ifndef VDBA_PERFBENCH_PROBE_H_
#define VDBA_PERFBENCH_PROBE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double Now();
/// CPU time of the whole process / of the calling thread, seconds.
double ProcessCpu();
double ThreadCpu();
/// Peak resident set size of the process since the last ResetPeakRss(),
/// or since it started, MiB (VmHWM in /proc/self/status).
double PeakRssMb();
/// Restarts the peak from the current resident set size, so that the
/// peak leaves out set-up's transients (/proc/self/clear_refs).
void ResetPeakRss();
/// Threads the process has right now (/proc/self/status).
int LiveThreads();

/// `q`-quantile (0..1) with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Aggregate CPU tick counters of the host (/proc/stat line "cpu").
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Share of host CPU time the hypervisor stole between two readings.
double StealFraction(const HostTicks& begin, const HostTicks& end);

/// Share of host CPU time stolen up to which a measuring unit (a cycle or
/// a round) always counts as quiet, so that a quiet host keeps every unit.
inline constexpr double kQuietSteal = 0.01;
/// Which units count as quiet, given each unit's steal: those no more
/// stolen than the median unit or than kQuietSteal. The host runs slower
/// while it steals, so timings are taken from quiet units only.
std::vector<bool> QuietUnits(const std::vector<double>& steal);

/// Background sampler of the process's live thread count
/// (/proc/self/status) every 10 ms. Its own CPU time is reported so the
/// benchmark can exclude it from the advisor's compute bill.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler();
  ~ThreadPeakSampler();
  ThreadPeakSampler(const ThreadPeakSampler&) = delete;
  ThreadPeakSampler& operator=(const ThreadPeakSampler&) = delete;

  int peak() const { return peak_.load(); }
  /// CPU seconds the sampler thread has used so far.
  double cpu_seconds() const { return cpu_seconds_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::atomic<double> cpu_seconds_{0.0};
  std::thread thread_;
};

/// Runs `setup` `times` times and returns the median wall seconds of one
/// set-up; the state of the last set-up is what `setup` leaves behind.
double MedianSetupSeconds(int times, const std::function<void()>& setup);

}  // namespace perfbench

#endif  // VDBA_PERFBENCH_PROBE_H_
