// EXT8 — multi-rack shuffle scaling (google-benchmark).
//
// Measures the fleet hot path end-to-end: build an N-rack fleet
// (4x4 grid racks on a spine ring), run a shuffle whose mappers and
// reducers live in *different* racks, and report simulated events per
// wall second plus the job's simulated completion time over the
// per-packet spine transport; a controller variant measures the
// repricing loop's overhead. This is the CI bench-smoke anchor for the
// FleetRuntime / Interconnect / FleetController layer, the companion
// of micro_kernel's single-rack numbers.
#include <benchmark/benchmark.h>

#include "runtime/fleet.hpp"
#include "sim/log.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;

runtime::FleetConfig fleet_config(int racks) {
  runtime::FleetConfig cfg;
  for (int i = 0; i < racks; ++i) {
    runtime::RackSpec rack;
    rack.config.shape = runtime::RackShape::kGrid;
    rack.config.rack.width = 4;
    rack.config.rack.height = 4;
    rack.config.enable_crc = false;  // measure transport, not control
    cfg.racks.push_back(rack);
  }
  // Spine ring: rack i <-> rack (i+1) % racks.
  for (int i = 0; i < racks; ++i) {
    runtime::SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(i);
    s.rack_b = static_cast<std::uint32_t>((i + 1) % racks);
    s.rate = phy::DataRate::gbps(400);
    s.latency = 2_us;
    cfg.spine.push_back(s);
    if (racks == 2) break;  // avoid a duplicate 0<->1 pair
  }
  return cfg;
}

/// One shuffle (mappers on rack 0, reducers spread over the other
/// racks: every flow crosses the spine) at equal delivered bytes for
/// every variant.
void run_shuffle(benchmark::State& state, runtime::FleetConfig cfg, int racks) {
  sim::LogConfig::set_level(sim::LogLevel::kOff);
  std::uint64_t events = 0;
  double job_us = 0;
  for (auto _ : state) {
    runtime::FleetRuntime fleet(cfg);
    workload::CrossRackShuffleConfig shuffle;
    for (int x = 0; x < 4; ++x) shuffle.mappers.push_back(fleet.at(0, x, 0));
    for (int r = 1; r < racks; ++r) {
      for (int x = 0; x < 4; ++x) {
        shuffle.reducers.push_back(fleet.at(static_cast<std::uint32_t>(r), x, 3));
      }
    }
    shuffle.bytes_per_pair = phy::DataSize::kilobytes(64);
    auto& job = fleet.add_shuffle(shuffle);
    fleet.start();
    job.run(nullptr);
    fleet.run_until();
    fleet.stop();
    if (!job.finished() || job.result().failed > 0) {
      state.SkipWithError("shuffle did not complete");
      return;
    }
    events += fleet.sim().executed();
    job_us = job.result().job_completion.us();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["job_us"] = job_us;
}

void BM_MultiRackShuffle(benchmark::State& state) {
  const int racks = static_cast<int>(state.range(0));
  run_shuffle(state, fleet_config(racks), racks);
}

void BM_MultiRackShuffleControlled(benchmark::State& state) {
  // Packetized transport plus the repricing loop: the controller's
  // epoch ticks and route re-plans ride on the same clock.
  const int racks = static_cast<int>(state.range(0));
  runtime::FleetConfig cfg = fleet_config(racks);
  cfg.enable_controller = true;
  cfg.controller.epoch = 50_us;
  run_shuffle(state, std::move(cfg), racks);
}

void BM_CrossRackFlow(benchmark::State& state) {
  // One 1 MB flow across the diameter of a 3-rack line: the per-packet
  // orchestration overhead (legs + spine FIFO), amortised.
  sim::LogConfig::set_level(sim::LogLevel::kOff);
  runtime::FleetConfig cfg = fleet_config(3);
  cfg.spine.pop_back();  // break the ring: line 0 - 1 - 2
  std::uint64_t events = 0;
  for (auto _ : state) {
    runtime::FleetRuntime fleet(cfg);
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(2, 3, 3);
    spec.size = phy::DataSize::megabytes(1);
    bool ok = false;
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { ok = !r.failed; });
    fleet.run_until();
    if (!ok) {
      state.SkipWithError("cross-rack flow failed");
      return;
    }
    events += fleet.sim().executed();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_MultiRackShuffle)->Unit(benchmark::kMillisecond)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_MultiRackShuffleControlled)->Unit(benchmark::kMillisecond)->Arg(4);
BENCHMARK(BM_CrossRackFlow)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
