// Seeded inputs of the benchmark workloads.
//
// Everything a workload feeds the advisor is generated here from the
// run's seed with vdba::Rng, so the same seed always gives the same
// inputs. The structure of each input (how many tenants, which engines and
// queries, which tenants carry QoS limits) is fixed; the seed draws the
// statement frequencies, so a workload's size is about the same on every
// seed while its concrete inputs differ.
#ifndef VDBA_PERFBENCH_INPUTS_H_
#define VDBA_PERFBENCH_INPUTS_H_

#include <memory>
#include <vector>

#include "advisor/fleet_advisor.h"
#include "advisor/tenant.h"
#include "scenario/scenario.h"
#include "simdb/workload.h"
#include "util/rng.h"

namespace perfbench {

inline constexpr int kFleetMachines = 8;
inline constexpr int kFleetTenants = 64;

/// The 8-machine heterogeneous M = 4 fleet of the scale_tenants and
/// service_events benches: machines cycle through a balanced class, a
/// class with a 4x faster NIC and a class with 1.5x faster CPUs, each
/// calibrated on its own hardware.
struct FleetBed {
  std::vector<std::unique_ptr<vdba::scenario::Testbed>> classes;
  std::vector<vdba::advisor::FleetMachine> machines;

  /// Testbed whose engines and catalogs the tenants are built on.
  const vdba::scenario::Testbed& tenant_testbed() const { return *classes[0]; }
};
std::unique_ptr<FleetBed> MakeFleetBed();

/// Fleet tenants 0 .. n - 1. Tenant i runs 5 to 8 TPC-H statements on pg
/// (even i) or db2 (odd i), the service_events population's statement
/// mix with each frequency scaled by a seeded factor in [0.8, 1.2). Every
/// even tenant also ships data (the replication extract) and every
/// eighth carries a degradation limit.
std::vector<vdba::advisor::Tenant> FleetTenants(
    const vdba::scenario::Testbed& tb, int n, vdba::Rng* rng);

/// True when fleet tenant `index` carries a degradation limit.
inline bool QosLimited(int index) { return index % 8 == 0; }

/// A drifted workload for fleet tenant `index`: its statements with
/// frequencies redrawn within 50% of their base.
vdba::simdb::Workload DriftWorkload(const vdba::scenario::Testbed& tb,
                                    int index, vdba::Rng* rng);

}  // namespace perfbench

#endif  // VDBA_PERFBENCH_INPUTS_H_
