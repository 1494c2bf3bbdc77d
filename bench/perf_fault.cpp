// perf_fault — cost of the fault-injection subsystem. Its contract is that
// a campaign without a FaultPlan pays nothing measurable for the hooks:
// BM_TracerouteNoFaultArg (the pre-existing call shape) and
// BM_TracerouteNullFaults (hooks present, pointer null) must agree within
// noise (<2%). BM_TracerouteActiveFaults shows the price of a mild-profile
// fault day.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "fault/plan.hpp"
#include "measure/engine.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudrtt;

struct Fixture {
  topology::World world{topology::WorldConfig{7}};
  probes::ProbeFleet fleet{world,
                           probes::FleetConfig{probes::Platform::Speedchecker, 600}};
  measure::Engine engine{world};

  static Fixture& instance() {
    static Fixture fixture;
    return fixture;
  }
};

// Identical body to perf_core's BM_Traceroute: the default-argument call the
// whole pre-fault codebase makes.
void BM_TracerouteNoFaultArg(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint = endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(f.engine.traceroute(probe, endpoint, 0, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteNoFaultArg);

// The campaign's call shape on a clean day: hooks threaded through, fault
// pointer null. Must be indistinguishable from BM_TracerouteNoFaultArg.
void BM_TracerouteNullFaults(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint = endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(
        f.engine.traceroute(probe, endpoint, 0, rng,
                            measure::Engine::TraceMethod::Classic, 0, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteNullFaults);

// A mild-profile fault day's trace damage, for scale.
void BM_TracerouteActiveFaults(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  util::Rng rng{4};
  const fault::FaultIntensity intensity =
      fault::FaultIntensity::for_profile(fault::FaultProfile::Mild);
  const fault::TraceFaults faults{intensity.trace_truncate_prob, 0.03};
  const auto& probes = f.fleet.probes();
  const auto& endpoints = f.world.endpoints();
  for (auto _ : state) {
    const probes::Probe& probe = probes[rng.below(probes.size())];
    const topology::CloudEndpoint& endpoint = endpoints[rng.below(endpoints.size())];
    benchmark::DoNotOptimize(
        f.engine.traceroute(probe, endpoint, 0, rng,
                            measure::Engine::TraceMethod::Classic, 0, &faults));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerouteActiveFaults);

// Building a whole campaign's fault schedule (done once per run).
void BM_FaultPlanConstruction(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  const fault::FaultIntensity intensity =
      fault::FaultIntensity::for_profile(fault::FaultProfile::Harsh);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::FaultPlan{f.world, 180, intensity, ++seed});
  }
  state.SetItemsProcessed(state.iterations() * 180);
}
BENCHMARK(BM_FaultPlanConstruction);

}  // namespace

BENCHMARK_MAIN();
