// FleetRuntime: sharded multi-rack simulation on one clock. A 1-shard
// fleet must be byte-identical to a standalone FabricRuntime, cross-
// rack flows must stage correctly over the spine (including multi-hop
// and failure), and the fleet registry must expose every shard's
// metrics under its "rack<N>." prefix next to the live "spine.*" set.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/runtime.hpp"
#include "workload/crossrack.hpp"
#include "workload/generator.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using runtime::FabricRuntime;
using runtime::FleetConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using namespace rsf::sim::literals;

RuntimeConfig grid_config(int w = 4, int h = 4) {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = w;
  cfg.rack.height = h;
  return cfg;
}

/// A fixed-seed workload driven identically against a standalone
/// runtime and a 1-shard fleet's rack.
workload::GeneratorConfig workload_config() {
  workload::GeneratorConfig cfg;
  cfg.seed = 99;
  cfg.mean_interarrival = 60_us;
  cfg.horizon = 2_ms;
  cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(8));
  return cfg;
}

TEST(FleetRuntime, OneShardFleetIsByteIdenticalToStandaloneRuntime) {
  // Standalone.
  FabricRuntime rt(grid_config());
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(rt.node_count()),
                               workload_config());
  rt.start();
  gen.start();
  rt.run_until();
  rt.stop();
  rt.run_until();

  // 1-shard fleet, same rack config, same workload.
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(fc);
  auto& fgen = fleet.rack(0).add_generator(
      workload::TrafficMatrix::uniform(fleet.rack(0).node_count()), workload_config());
  fleet.start();
  fgen.start();
  fleet.run_until();
  fleet.stop();
  fleet.run_until();

  EXPECT_EQ(rt.sim().executed(), fleet.sim().executed());
  // Byte-identical metrics: the shard's rendered table equals the
  // standalone runtime's, row for row.
  EXPECT_EQ(rt.metrics_table().to_string(), fleet.rack(0).metrics_table().to_string());
}

TEST(FleetRuntime, CrossRackFlowDelivers) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.latency = 3_us;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::kilobytes(64);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 1);
  EXPECT_EQ(result->rack_legs, 2);  // src->gw in rack 0, gw->dst in rack 1
  // The payload crossed the spine at least once: serialization + the
  // 3 us propagation put completion past the pure-latency floor.
  EXPECT_GT(result->completion_time(), 3_us);
  EXPECT_EQ(fleet.flows_completed(), 1u);
  // Per-packet transport: every one of the 63 packets (64 kB SI at
  // 1024 B) crossed both rack fabrics (as probes) and the spine
  // individually.
  EXPECT_EQ(fleet.rack(0).network().counters().get("net.probes"), 63u);
  EXPECT_EQ(fleet.rack(1).network().counters().get("net.probes"), 63u);
  EXPECT_EQ(fleet.spine().counters().get("spine.packets"), 63u);
  EXPECT_EQ(fleet.spine().counters().get("spine.link0.packets"), 63u);
  EXPECT_EQ(fleet.spine().link_packets(0, 0), 63u);
  EXPECT_EQ(fleet.spine().link_packets(0, 1), 0u);  // one-directional flow
}

TEST(FleetRuntime, MultiHopSpineRoutesThroughIntermediateRack) {
  // Line 0 - 1 - 2 with distinct entry/exit gateways on rack 1, so the
  // payload must cross rack 1's fabric between them.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s01;
  s01.rack_a = 0;
  s01.rack_b = 1;
  fc.spine.push_back(s01);
  SpineSpec s12;
  s12.rack_a = 1;
  s12.rack_b = 2;
  s12.gateway_a = 15;  // far corner of rack 1
  fc.spine.push_back(s12);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 1, 1);
  spec.dst = fleet.at(2, 2, 2);
  spec.size = DataSize::kilobytes(32);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 2);
  EXPECT_EQ(result->rack_legs, 3);  // rack0 egress, rack1 transit, rack2 ingress
  // Packets transited rack 1's fabric between its two gateways.
  EXPECT_GT(fleet.rack(1).network().counters().get("net.probes"), 0u);
  EXPECT_GT(fleet.rack(1).network().counters().get("net.packets_delivered"), 0u);
}

TEST(FleetRuntime, DownSpineLinkFailsOrReroutes) {
  // Triangle 0-1, 1-2, 0-2: killing 0-2 reroutes through rack 1;
  // killing both 0-2 and 1-2 leaves rack 2 unreachable.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(a);
    s.rack_b = static_cast<std::uint32_t>(b);
    fc.spine.push_back(s);
  }
  FleetRuntime fleet(fc);
  fleet.spine().set_link_up(2, false);  // 0-2 down

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 0);
  spec.dst = fleet.at(2, 0, 1);
  spec.size = DataSize::kilobytes(16);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 2);  // took the detour via rack 1

  fleet.spine().set_link_up(1, false);  // 1-2 down too: rack 2 cut off
  spec.id = 2;
  spec.start = fleet.now();
  std::optional<runtime::FleetFlowResult> cut;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { cut = r; });
  fleet.run_until();
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(cut->failed);
  EXPECT_EQ(fleet.flows_failed(), 1u);
}

TEST(FleetRuntime, CrossRackShuffleCompletesAndCountsSpineHops) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  workload::CrossRackShuffleConfig cfg;
  for (int x = 0; x < 3; ++x) cfg.mappers.push_back(fleet.at(0, x, 0));
  for (int x = 0; x < 2; ++x) cfg.reducers.push_back(fleet.at(1, x, 3));
  cfg.bytes_per_pair = DataSize::kilobytes(32);
  auto& job = fleet.add_shuffle(cfg);
  std::optional<workload::CrossRackResult> result;
  job.run([&](const workload::CrossRackResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(job.finished());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->flows, 6u);  // 3 mappers x 2 reducers
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->cross_rack_flows, 6u);
  EXPECT_EQ(result->spine_hops, 6u);
  EXPECT_GE(result->straggler_ratio(), 1.0);
  EXPECT_GT(result->job_completion, SimTime::zero());
}

TEST(FleetRuntime, RegistryExposesPrefixedRackAndSpineMetrics) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 1);
  spec.dst = fleet.at(1, 1, 0);
  spec.size = DataSize::kilobytes(16);
  fleet.start_flow(spec);
  fleet.run_until();

  auto& metrics = fleet.metrics();
  for (const std::string rack : {"rack0", "rack1"}) {
    const auto* pkt = metrics.find_histogram(rack + ".net.packet_latency");
    ASSERT_NE(pkt, nullptr) << rack;
    EXPECT_GT(pkt->count(), 0u) << rack;
    const auto* counters = metrics.find_counters(rack + ".net");
    ASSERT_NE(counters, nullptr) << rack;
    EXPECT_GT(counters->get(rack + ".net.packets_delivered"), 0u) << rack;
  }
  EXPECT_NE(metrics.find_counters("spine"), nullptr);
  EXPECT_EQ(metrics.find_counters("spine")->get("spine.packets"), 16u);  // 16 kB / 1 KiB
  EXPECT_NE(metrics.find_histogram("spine.transfer_latency"), nullptr);

  // The snapshot matches the shard's own registry, and re-collecting
  // refreshes in place (no double counting, stable instruments).
  const auto* before = metrics.find_histogram("rack0.net.packet_latency");
  const auto count = before->count();
  EXPECT_EQ(count, fleet.rack(0).network().packet_latency().count());
  auto& again = fleet.metrics();
  EXPECT_EQ(before, again.find_histogram("rack0.net.packet_latency"));
  EXPECT_EQ(before->count(), count);

  // The fleet table carries rows from every prefix.
  const std::string table = fleet.metrics_table().to_string();
  EXPECT_NE(table.find("rack0.net.packet_latency"), std::string::npos);
  EXPECT_NE(table.find("rack1.net.packet_latency"), std::string::npos);
  EXPECT_NE(table.find("spine.packets"), std::string::npos);
}

TEST(FleetRuntime, SameRackFleetFlowCollapsesToPlainNetworkFlow) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 0);
  spec.dst = fleet.at(0, 3, 3);
  spec.size = DataSize::kilobytes(16);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 0);
  EXPECT_EQ(result->rack_legs, 1);
}

TEST(FleetRuntime, MidFlowSpineFailureReroutesInFlightPackets) {
  // Triangle 0-1 (link 0), 1-2 (link 1), 0-2 (link 2). A long flow
  // 0 -> 2 starts on the direct link; killing it mid-flow must re-plan
  // the remaining packets through rack 1 and still complete.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(a);
    s.rack_b = static_cast<std::uint32_t>(b);
    fc.spine.push_back(s);
  }
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(2, 2, 2);
  spec.size = DataSize::megabytes(1);  // ~1024 packets: far from done at 50 us
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(50_us, [&] { fleet.spine().set_link_up(2, false); });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  // Early packets took the direct hop, post-failure packets the detour.
  EXPECT_EQ(result->spine_hops, 2);
  const auto& c = fleet.spine().counters();
  EXPECT_GT(c.get("spine.link2.packets"), 0u);
  EXPECT_GT(c.get("spine.link0.packets"), 0u);
  EXPECT_GT(c.get("spine.link1.packets"), 0u);
  // At least one in-flight packet hit the dead hop and re-planned.
  EXPECT_GE(c.get("spine.packet_reroutes"), 1u);
  EXPECT_EQ(fleet.flows_completed(), 1u);
}

TEST(FleetRuntime, MidFlowSpinePartitionFailsDeterministically) {
  // Two racks, one spine link: killing it mid-flow leaves no route.
  // The flow must fail cleanly (callback fires, simulation drains).
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::megabytes(1);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(50_us, [&] { fleet.spine().set_link_up(0, false); });
  fleet.run_until();  // must terminate, not hang on a stuck window

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(fleet.flows_failed(), 1u);
  EXPECT_TRUE(fleet.sim().idle());
}

TEST(FleetRuntime, SpineLossRetransmitsUntilDelivered) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.loss_prob = 0.05;
  fc.spine.push_back(s);
  fc.seed = 7;
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 1, 1);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::kilobytes(256);  // 250 packets: losses certain
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_GT(result->retransmits, 0u);
  const auto& c = fleet.spine().counters();
  EXPECT_GT(c.get("spine.packet_drops"), 0u);
  EXPECT_EQ(c.get("spine.retransmits"), result->retransmits);
  // Every drop was re-sent: packets on the wire = clean packets + drops.
  EXPECT_EQ(c.get("spine.packets"), 250u + c.get("spine.packet_drops"));
  EXPECT_EQ(fleet.spine().link_drops(0, 0), c.get("spine.packet_drops"));
}

/// Drive one fixed cross-rack workload against `fleet`; used by the
/// determinism regressions below.
void run_reference_shuffle(FleetRuntime& fleet) {
  workload::CrossRackShuffleConfig cfg;
  for (int x = 0; x < 3; ++x) cfg.mappers.push_back(fleet.at(0, x, 0));
  for (int x = 0; x < 2; ++x) cfg.reducers.push_back(fleet.at(1, x, 3));
  cfg.bytes_per_pair = DataSize::kilobytes(64);
  auto& gen = fleet.rack(0).add_generator(
      workload::TrafficMatrix::uniform(fleet.rack(0).node_count()), workload_config());
  fleet.start();
  gen.start();
  fleet.add_shuffle(cfg).run(nullptr);
  fleet.run_until();
  fleet.stop();
  fleet.run_until();
}

TEST(FleetRuntime, SameSeedRunsRenderByteIdenticalMetricsTables) {
  // Loss on the spine exercises the spine RNG; the controller
  // exercises repricing; both must be bit-for-bit reproducible.
  auto make_config = [] {
    FleetConfig fc;
    fc.racks.push_back(RackSpec{grid_config(), 0});
    fc.racks.push_back(RackSpec{grid_config(), 0});
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.loss_prob = 0.02;
    fc.spine.push_back(s);
    fc.seed = 42;
    fc.enable_controller = true;
    fc.controller.epoch = 20_us;
    return fc;
  };
  FleetRuntime a(make_config());
  run_reference_shuffle(a);
  FleetRuntime b(make_config());
  run_reference_shuffle(b);
  EXPECT_EQ(a.sim().executed(), b.sim().executed());
  EXPECT_EQ(a.metrics_table().to_string(), b.metrics_table().to_string());
}

/// A lossy three-rack line under a shuffle and a delayed incast,
/// rendered to its full merged metrics table.
std::string run_mixed_fleet() {
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(3, 3), 0});
  for (int i = 0; i < 2; ++i) {
    SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(i);
    s.rack_b = static_cast<std::uint32_t>(i + 1);
    s.latency = 2_us;
    s.loss_prob = 0.01;  // exercises the spine RNG draw order
    fc.spine.push_back(s);
  }
  fc.seed = 7;
  FleetRuntime fleet(fc);

  workload::CrossRackShuffleConfig shuffle;
  for (int x = 0; x < 3; ++x) shuffle.mappers.push_back(fleet.at(0, x, 2));
  for (phy::NodeId n = 1; n <= 3; ++n) shuffle.reducers.push_back({2, n});
  shuffle.bytes_per_pair = DataSize::kilobytes(32);
  fleet.add_shuffle(shuffle).run([](const workload::CrossRackResult&) {});

  workload::CrossRackIncastConfig incast;
  for (int x = 0; x < 3; ++x) incast.sources.push_back(fleet.at(1, x, 0));
  incast.sink = fleet.at(0, 1, 1);
  incast.bytes_per_source = DataSize::kilobytes(16);
  incast.start = 40_us;
  fleet.add_incast(incast).run([](const workload::CrossRackResult&) {});

  fleet.start();
  fleet.run_until();
  fleet.stop();
  fleet.run_until();
  EXPECT_GT(fleet.flows_completed(), 0u);
  return fleet.metrics_table().to_string() + "completed " +
         std::to_string(fleet.flows_completed()) + " failed " +
         std::to_string(fleet.flows_failed()) + "\n";
}

TEST(FleetRuntime, MixedWorkloadSameSeedTwiceIsByteIdentical) {
  EXPECT_EQ(run_mixed_fleet(), run_mixed_fleet());
}

TEST(FleetRuntime, SkewedScenariosSameSeedTwiceAreByteIdentical) {
  // The ext9 sweep's three scenarios — different topologies, rack
  // mixes, and controller policies — each checked lossless and lossy.
  using workload::SkewedFleetScenario;
  using workload::SkewedScenarioConfig;
  using workload::SkewedScenarioKind;
  using workload::SkewedScenarioResult;
  const SkewedScenarioKind kinds[] = {SkewedScenarioKind::kHotRackIncast,
                                      SkewedScenarioKind::kSlowSpineLeg,
                                      SkewedScenarioKind::kMixedRackSizes};
  for (const SkewedScenarioKind kind : kinds) {
    for (const double loss : {0.0, 0.005}) {
      auto run = [&] {
        SkewedScenarioConfig cfg;
        cfg.kind = kind;
        cfg.loss_prob = loss;
        cfg.reservations = true;
        SkewedFleetScenario scenario(cfg);
        const SkewedScenarioResult r = scenario.run();
        return std::pair<SkewedScenarioResult, std::string>(
            r, scenario.fleet().metrics_table().to_string());
      };
      const auto first = run();
      const auto second = run();
      EXPECT_EQ(second.second, first.second)
          << "kind=" << static_cast<int>(kind) << " loss=" << loss;
      EXPECT_EQ(second.first.hot.job_completion, first.first.hot.job_completion);
      EXPECT_EQ(second.first.background.job_completion,
                first.first.background.job_completion);
      EXPECT_EQ(second.first.hot.retransmits, first.first.hot.retransmits);
      EXPECT_EQ(second.first.promotions, first.first.promotions);
      EXPECT_EQ(second.first.reserved_bytes, first.first.reserved_bytes);
    }
  }
}

TEST(FleetRuntime, AddingARackDoesNotPerturbExistingRacksStreams) {
  // The same workload runs in a 2-rack fleet and a 3-rack fleet (the
  // extra rack idles): racks 0 and 1 must render byte-identical
  // metrics, because every rack derives its own child streams
  // (sim/random independence at fleet scope).
  auto make_config = [](int racks) {
    FleetConfig fc;
    for (int i = 0; i < racks; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.loss_prob = 0.02;
    fc.spine.push_back(s);
    fc.seed = 42;
    return fc;
  };
  FleetRuntime two(make_config(2));
  run_reference_shuffle(two);
  FleetRuntime three(make_config(3));
  run_reference_shuffle(three);
  EXPECT_EQ(two.rack(0).metrics_table().to_string(),
            three.rack(0).metrics_table().to_string());
  EXPECT_EQ(two.rack(1).metrics_table().to_string(),
            three.rack(1).metrics_table().to_string());
}

TEST(FleetRuntime, SlotSchedulesTakePrecedenceOverACarveUntilReleased) {
  // Controller off: the claims come from the direct spine API. Three
  // parallel legs between racks 0 and 1; the carve pins leg 0 and the
  // two schedules, booked in that order, pin legs 1 and 2.
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  for (int leg = 0; leg < 3; ++leg) {
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    fc.spine.push_back(s);
  }
  FleetRuntime fleet(fc);
  fabric::Interconnect& spine = fleet.spine();
  const auto carve = spine.reserve(0, 1, 0.3);
  ASSERT_TRUE(carve.has_value());
  ASSERT_EQ(spine.claim_route(*carve), (std::vector<fabric::SpineLinkId>{0}));
  const auto first = spine.reserve_slots(0, 1, 4, 1, {0});
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(spine.claim_route(*first), (std::vector<fabric::SpineLinkId>{1}));
  const auto second = spine.reserve_slots(0, 1, 4, 1, {0, 1});
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(spine.claim_route(*second), (std::vector<fabric::SpineLinkId>{2}));
  const auto count = [&](const char* name) { return spine.counters().get(name); };

  // Packets ride the schedules round-robin in booking order: a flow's
  // first packet takes the first schedule's leg, its second the
  // second's, its third the first's again.
  const auto run_flow = [&](std::int64_t bytes) {
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 3, 3);
    spec.dst = fleet.at(1, 2, 2);
    spec.size = DataSize::bytes(bytes);
    spec.packet_size = DataSize::bytes(1000);
    spec.start = fleet.now();
    std::optional<runtime::FleetFlowResult> result;
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
    return result;
  };
  std::optional<runtime::FleetFlowResult> one = run_flow(1000);
  fleet.run_until(fleet.now() + 100_us);
  EXPECT_EQ(spine.link_packets(1, 0), 1u);
  EXPECT_EQ(spine.link_packets(2, 0), 0u);
  std::optional<runtime::FleetFlowResult> three = run_flow(3000);
  fleet.run_until(fleet.now() + 100_us);
  EXPECT_EQ(spine.link_packets(1, 0), 3u);
  EXPECT_EQ(spine.link_packets(2, 0), 1u);
  // The carve only pins the flow's shared route: nothing rode leg 0 or
  // the carved slice, and no packet needed a route-cache lookup.
  EXPECT_EQ(spine.link_packets(0, 0), 0u);
  EXPECT_EQ(count("spine.slotted_bytes"), 4000u);
  EXPECT_EQ(count("spine.reserved_bytes"), 0u);
  EXPECT_EQ(count("spine.route_cache_hits") + count("spine.route_cache_misses"), 0u);

  // A long flow: once both schedules are released mid-flow, its
  // remaining packets ride the carve on leg 0.
  std::optional<runtime::FleetFlowResult> big = run_flow(200'000);
  while (count("spine.slotted_bytes") < 40'000) fleet.run_until(fleet.now() + 1_us);
  EXPECT_EQ(count("spine.reserved_bytes"), 0u);
  spine.release(*first);
  spine.release(*second);
  const std::uint64_t slotted_at_release = count("spine.slotted_bytes");
  fleet.run_until();
  ASSERT_TRUE(big.has_value());
  EXPECT_FALSE(big->failed);
  EXPECT_EQ(count("spine.slotted_bytes"), slotted_at_release);
  EXPECT_GT(count("spine.reserved_bytes"), 100'000u);
  EXPECT_GT(spine.link_packets(0, 0), 100u);
  EXPECT_EQ(count("spine.route_cache_hits") + count("spine.route_cache_misses"), 0u);
  ASSERT_TRUE(one.has_value() && three.has_value());
  EXPECT_FALSE(one->failed || three->failed);
}

TEST(FleetRuntime, RejectsBadConfigs) {
  EXPECT_THROW(FleetRuntime(FleetConfig{}), std::invalid_argument);

  FleetConfig bad_gateway;
  bad_gateway.racks.push_back(RackSpec{grid_config(), 99});
  EXPECT_THROW(FleetRuntime{bad_gateway}, std::invalid_argument);

  FleetConfig bad_window;
  bad_window.racks.push_back(RackSpec{grid_config(), 0});
  bad_window.flow_window = 0;
  EXPECT_THROW(FleetRuntime{bad_window}, std::invalid_argument);

  FleetConfig bad_retries;
  bad_retries.racks.push_back(RackSpec{grid_config(), 0});
  bad_retries.max_retries = -1;  // would disable the retry budget
  EXPECT_THROW(FleetRuntime{bad_retries}, std::invalid_argument);

  FleetConfig bad_delay;
  bad_delay.racks.push_back(RackSpec{grid_config(), 0});
  bad_delay.retry_delay = 0_us - 5_us;  // retries must not go backwards
  EXPECT_THROW(FleetRuntime{bad_delay}, std::invalid_argument);

  // A fleet is one serial drive; parallelism lives in the sweep arm
  // pool, and the refusal says so.
  for (const int workers : {-1, 0, 2, 4}) {
    FleetConfig bad_workers;
    bad_workers.racks.push_back(RackSpec{grid_config(), 0});
    bad_workers.workers = workers;
    try {
      FleetRuntime fleet(bad_workers);
      ADD_FAILURE() << "workers=" << workers << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("arm pool"), std::string::npos) << e.what();
    }
  }

  FleetConfig bad_spine;
  bad_spine.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 7;  // no such rack
  bad_spine.spine.push_back(s);
  EXPECT_THROW(FleetRuntime{bad_spine}, std::invalid_argument);

  // A negative spine latency is refused at construction, not at the
  // first cross-rack send.
  FleetConfig bad_latency;
  bad_latency.racks.push_back(RackSpec{grid_config(), 0});
  bad_latency.racks.push_back(RackSpec{grid_config(), 0});
  s.rack_b = 1;
  s.latency = 0_us - 50_us;
  bad_latency.spine.push_back(s);
  EXPECT_THROW(FleetRuntime{bad_latency}, std::invalid_argument);

  // Bad flow specs fail at the call site, not mid-simulation.
  FleetConfig ok;
  ok.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(ok);
  runtime::FleetFlowSpec empty_flow;
  empty_flow.src = fleet.at(0, 0, 0);
  empty_flow.dst = fleet.at(0, 1, 1);
  empty_flow.size = DataSize::bytes(0);
  EXPECT_THROW(fleet.start_flow(empty_flow), std::invalid_argument);
}

}  // namespace
}  // namespace rsf
