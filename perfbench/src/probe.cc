#include "probe.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The number after `field` (e.g. "Threads:") in /proc/self/status; 0
/// when absent.
long StatusField(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const size_t len = std::strlen(field);
  char line[256];
  long value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      value = std::atol(line + len);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

int LiveThreads() { return static_cast<int>(StatusField("Threads:")); }

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpu() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpu() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  return static_cast<double>(StatusField("VmHWM:")) / 1024.0;  // KiB -> MiB
}

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double StealFraction(const HostTicks& begin, const HostTicks& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

std::vector<bool> QuietUnits(const std::vector<double>& steal) {
  const double limit = std::max(Median(steal), kQuietSteal);
  std::vector<bool> quiet;
  for (double s : steal) quiet.push_back(s <= limit);
  return quiet;
}

ThreadPeakSampler::ThreadPeakSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const int live = LiveThreads();
          if (live > peak_.load()) peak_.store(live);
          cpu_seconds_.store(ThreadCpu());
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        cpu_seconds_.store(ThreadCpu());
      }) {}

ThreadPeakSampler::~ThreadPeakSampler() {
  stop_.store(true);
  thread_.join();
}

double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double start = Now();
    setup();
    seconds.push_back(Now() - start);
  }
  return Median(std::move(seconds));
}

}  // namespace perfbench
