// Entry point of the repository benchmark: runs one workload for one seed
// and prints its result as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --drift-rate <events/s> [--trace-dir <dir>]
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "probe.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Expect(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::Count(long attempted, long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Metric("latency_ms_p50", e2e.latency_ms_p50, "ms");
  report->Metric("throughput_per_sec", e2e.throughput_per_sec, "1/s");
  report->Metric("cpu_ms_per_op", e2e.cpu_ms_per_op, "ms");
  report->Metric("objective_s", e2e.objective, "est_s");
  report->Metric("qos_met_frac", e2e.qos_met_frac, "ratio");
  report->Metric("setup_s", e2e.setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

std::string SpanPath(const Args& args) {
  return args.trace_dir + "/" + args.workload + "_seed" +
         std::to_string(args.seed) + ".spans.jsonl";
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_plan|event_drift> --seed <n> --seconds <s> --trace "
               "<0|1> --drift-rate <r> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("malformed flag");
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "drift-rate"}) {
    if (!flags.contains(required)) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }

  perfbench::Args args;
  args.workload = flags["workload"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::atoi(flags["seconds"].c_str());
  args.trace = flags["trace"] == "1";
  args.drift_rate = std::atof(flags["drift-rate"].c_str());
  args.trace_dir = flags.contains("trace-dir") ? flags["trace-dir"] : ".";
  if (args.seconds < 1 || args.drift_rate <= 0.0) {
    return Usage("--seconds and --drift-rate must be positive");
  }

  const std::map<std::string, void (*)(const perfbench::Args&,
                                       perfbench::Report*)>
      workloads = {{"fleet_plan", perfbench::RunFleetPlan},
                   {"event_drift", perfbench::RunEventDrift}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  perfbench::Report report;
  it->second(args, &report);
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
