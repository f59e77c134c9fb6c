// MICRO — google-benchmark microbenchmarks of the hot substrate paths.
//
// Not a paper artefact: these guard the simulator's own performance so
// the experiment benches stay fast enough to sweep (a rack-scale run
// pushes millions of events through these paths).
#include <benchmark/benchmark.h>

#include <vector>

#include "phy/fec.hpp"
#include "phy/plant.hpp"
#include "runtime/runtime.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(sim::SimTime::nanoseconds(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorSelfRescheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::function<void()> tick = [&] {
      if (sim.now() < 10_us) sim.schedule_after(10_ns, tick);
    };
    sim.schedule_at(sim::SimTime::zero(), tick);
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorSelfRescheduling);

// The kernel's far-future path: a hold model with ~80k events pending
// at 10 us–1 ms delays (a loaded rack's FIFO backlog), so nearly every
// event is placed in level 2 and later migrated into the ring by a
// re-anchor. items/s is held events per second.
struct FarHoldModel {
  sim::Simulator sim;
  sim::RandomStream rng{7, "micro.far_hold"};
  sim::SimTime delay() { return sim::SimTime::microseconds(rng.uniform(10.0, 1000.0)); }
};

struct FarHoldEvent {
  FarHoldModel* m;
  void operator()() const { m->sim.schedule_after(m->delay(), FarHoldEvent{m}); }
};
static_assert(sim::is_inline_event_v<FarHoldEvent>);

void BM_SimulatorFarHold(benchmark::State& state) {
  FarHoldModel m;
  for (int i = 0; i < 80'000; ++i) m.sim.schedule_after(m.delay(), FarHoldEvent{&m});
  constexpr std::size_t kHoldsPerIteration = 10'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.sim.run_events(kHoldsPerIteration));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHoldsPerIteration));
}
BENCHMARK(BM_SimulatorFarHold);

void BM_RandomExponential(benchmark::State& state) {
  sim::RandomStream rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(100.0));
  }
}
BENCHMARK(BM_RandomExponential);

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Histogram h;
  sim::RandomStream rng(2);
  for (auto _ : state) {
    h.record(rng.uniform(1.0, 1e9));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_FecFrameLoss(benchmark::State& state) {
  const auto spec = phy::FecSpec::of(phy::FecScheme::kRsKp4);
  double ber = 1e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.frame_loss_prob(ber, phy::DataSize::bytes(1500)));
    ber = ber < 1e-4 ? ber * 1.01 : 1e-6;
  }
}
BENCHMARK(BM_FecFrameLoss);

// The per-hop phy layer: one 2-lane RS(528,514) link at the grid's
// default 1e-12 lane BER, as Network::hop drives it.
struct TwoLaneKr4Link {
  phy::PhysicalPlant plant;
  phy::LinkId link = 0;
  TwoLaneKr4Link() {
    const phy::CableId cable =
        plant.add_cable(0, 1, 2.0, phy::Medium::kFiber, 2, phy::DataRate::gbps(25));
    link = plant.create_adjacent_link(cable, {0, 1}, phy::FecSpec::of(phy::FecScheme::kRsKr4));
  }
};

// PLP #5 decoder-telemetry sampling of one 1 KB frame.
void BM_AccountFrame(benchmark::State& state) {
  TwoLaneKr4Link f;
  sim::RandomStream rng(3, "micro.account_frame");
  const auto frame = phy::DataSize::bytes(1024);
  for (auto _ : state) {
    f.plant.account_frame(f.link, frame, rng);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(f.plant.cable(0).lane(0).stats().corrected_codewords);
}
BENCHMARK(BM_AccountFrame);

// LogicalLink's frame-loss memo under a flow mix: 1 KB packets
// interleaved with partial last packets of random size.
void BM_LinkFrameLossMixedSizes(benchmark::State& state) {
  TwoLaneKr4Link f;
  sim::RandomStream rng(5, "micro.frame_loss_mix");
  std::vector<phy::DataSize> frames;
  for (int i = 0; i < 1024; ++i) {
    frames.push_back(i % 2 == 0 ? phy::DataSize::bytes(1024)
                                : phy::DataSize::bytes(rng.uniform_int(1, 1023)));
  }
  const phy::LogicalLink& l = f.plant.link(f.link);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l.frame_loss_prob(frames[i]));
    i = (i + 1) % frames.size();
  }
}
BENCHMARK(BM_LinkFrameLossMixedSizes);

void BM_RouterDijkstra(benchmark::State& state) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = static_cast<int>(state.range(0));
  cfg.rack.height = static_cast<int>(state.range(0));
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  phy::NodeId dst = 0;
  for (auto _ : state) {
    rt.router().bump_prices();  // force recompute
    benchmark::DoNotOptimize(
        rt.router().next_hop(static_cast<phy::NodeId>(rt.node_count() - 1), dst));
    dst = (dst + 1) % rt.node_count();
  }
}
BENCHMARK(BM_RouterDijkstra)->Arg(4)->Arg(8)->Arg(16);

// One CRC epoch's routing work on the rsfbench rack (8x8 grid, 2-lane
// links, CRC price routing on): the epoch's bump_prices() invalidates
// every route, then traffic asks for next hops toward every
// destination. items/s counts next_hop calls.
void BM_RouterEpochRebuild(benchmark::State& state) {
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kGrid;
  cfg.rack.width = 8;
  cfg.rack.height = 8;
  cfg.rack.lanes_per_cable = 2;
  cfg.rack.lanes_per_link = 2;
  runtime::FabricRuntime rt(cfg);
  rt.start();
  // Two epochs, so the price book holds real per-link prices.
  rt.run_until(rt.now() + rt.controller().config().epoch * std::int64_t{2});
  fabric::Router& router = rt.router();
  const std::uint32_t n = rt.node_count();
  std::uint64_t found = 0;
  for (auto _ : state) {
    router.bump_prices();
    for (phy::NodeId at = 0; at < n; ++at) {
      for (phy::NodeId dst = 0; dst < n; ++dst) {
        if (at != dst && router.next_hop(at, dst)) ++found;
      }
    }
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations() * std::int64_t{n} * (n - 1));
  rt.stop();
  rt.run_until();
}
BENCHMARK(BM_RouterEpochRebuild);

void BM_PacketTransportOneFlow(benchmark::State& state) {
  // The end-to-end hot path: one 256 KB flow corner to corner on a 4x4
  // grid. items/s is simulator events per second — the figure the
  // dense-id refactor targets.
  std::uint64_t events = 0;
  for (auto _ : state) {
    runtime::RuntimeConfig cfg;
    cfg.rack.width = 4;
    cfg.rack.height = 4;
    cfg.enable_crc = false;
    runtime::FabricRuntime rt(cfg);
    fabric::FlowSpec spec;
    spec.id = 1;
    spec.src = 0;
    spec.dst = 15;
    spec.size = phy::DataSize::kilobytes(256);
    rt.network().start_flow(spec, nullptr);
    rt.run_until();
    benchmark::DoNotOptimize(rt.network().flows_completed());
    events += rt.sim().executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PacketTransportOneFlow);

}  // namespace

BENCHMARK_MAIN();
