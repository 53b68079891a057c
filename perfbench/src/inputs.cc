#include "inputs.h"

#include <string>
#include <utility>

#include "workload/tpch.h"

namespace perfbench {

using vdba::Rng;
using vdba::advisor::QosSpec;
using vdba::advisor::Tenant;
using vdba::scenario::Testbed;
using vdba::scenario::TestbedOptions;
using vdba::simdb::Workload;

namespace {

constexpr int kQueryPool[] = {1, 3, 6, 12, 14, 18, 21};
constexpr int kPoolSize = 7;

int Statements(int index) { return 5 + index % 4; }

/// Fleet tenant `index` with its statement frequencies scaled by seeded
/// factors in [1 - jitter, 1 + jitter).
Tenant FleetTenant(const Testbed& tb, int index, double jitter, Rng* rng) {
  Workload w;
  for (int s = 0; s < Statements(index); ++s) {
    w.AddStatement(
        vdba::workload::TpchQuery(tb.tpch_sf1(),
                                  kQueryPool[(index + 2 * s) % kPoolSize]),
        (1.0 + (index + s) % 4) * rng->Uniform(1.0 - jitter, 1.0 + jitter));
  }
  if (index % 2 == 0) {
    w.AddStatement(vdba::workload::TpchReplicationExtract(tb.tpch_sf1()), 4.0);
  }
  QosSpec qos;
  if (QosLimited(index)) qos.degradation_limit = 6.0;
  return tb.MakeTenant(index % 2 ? tb.db2_sf1() : tb.pg_sf1(), std::move(w),
                       qos);
}

}  // namespace

std::unique_ptr<FleetBed> MakeFleetBed() {
  auto base = [] {
    TestbedOptions opts;
    opts.machine.resources = &vdba::simvm::ResourceModel::CpuMemIoNet();
    opts.calibration.io_shares = {0.35, 0.5, 0.7, 1.0};
    opts.calibration.net_shares = {0.35, 0.5, 0.7, 1.0};
    opts.with_sf10 = false;
    opts.with_tpcc = false;
    return opts;
  };
  auto bed = std::make_unique<FleetBed>();
  TestbedOptions balanced = base();
  balanced.machine.name = "balanced";
  TestbedOptions net_fast = base();
  net_fast.machine.name = "net-fast";
  net_fast.machine.net_page_ms /= 4.0;
  TestbedOptions cpu_fast = base();
  cpu_fast.machine.name = "cpu-fast";
  cpu_fast.machine.cpu_ops_per_sec *= 1.5;
  for (const TestbedOptions& opts : {balanced, net_fast, cpu_fast}) {
    bed->classes.push_back(std::make_unique<Testbed>(opts));
  }
  for (int m = 0; m < kFleetMachines; ++m) {
    const Testbed& cls = *bed->classes[static_cast<size_t>(m) % 3];
    vdba::advisor::FleetMachine fm;
    fm.hardware = cls.machine();
    fm.hardware.name = fm.hardware.name + "-" + std::to_string(m);
    fm.pg_calibration = &cls.pg_calibration();
    fm.db2_calibration = &cls.db2_calibration();
    bed->machines.push_back(fm);
  }
  return bed;
}

std::vector<Tenant> FleetTenants(const Testbed& tb, int n, Rng* rng) {
  std::vector<Tenant> tenants;
  for (int i = 0; i < n; ++i) tenants.push_back(FleetTenant(tb, i, 0.2, rng));
  return tenants;
}

Workload DriftWorkload(const Testbed& tb, int index, Rng* rng) {
  return FleetTenant(tb, index, 0.5, rng).workload;
}

}  // namespace perfbench
