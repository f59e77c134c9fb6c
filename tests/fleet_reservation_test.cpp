// Spine circuit reservations: the fleet-scale circuit vs. packet
// trade. Residual-rate arithmetic (a carve slows the shared FIFO by
// exactly the reserved fraction and the slice FIFO is independent),
// versioned-handle semantics (stale after release, idempotent,
// recycled slots detectable), survival across repricing but teardown
// on link failure with fallback to the shared residual, the
// controller's promote/demote hysteresis, skewed-scenario
// determinism, and the regression that the packetized default path is
// untouched while reservations are never configured.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/interconnect.hpp"
#include "runtime/fleet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "workload/crossrack.hpp"

namespace rsf {
namespace {

using fabric::Interconnect;
using fabric::SpineLinkParams;
using fabric::SpineReservationHandle;
using phy::DataSize;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using runtime::FleetConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using namespace rsf::sim::literals;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Interconnect-level semantics.
// ---------------------------------------------------------------------------

struct ReservationFixture : ::testing::Test {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine{&sim, &registry};

  fabric::SpineLinkId add(std::uint32_t a, std::uint32_t b,
                          double gbps = 8.0) {
    SpineLinkParams p;
    p.a = {a, 0};
    p.b = {b, 0};
    p.rate = phy::DataRate::gbps(gbps);
    p.latency = SimTime::zero();  // keep the arithmetic bare
    return spine.add_link(p);
  }

  /// Send one packet and run to completion; returns the arrival time.
  SimTime send(fabric::SpineLinkId id, std::uint32_t from, std::int64_t bytes,
               SpineReservationHandle res = {}) {
    std::optional<SimTime> arrival;
    EXPECT_TRUE(spine.send_packet(id, from, DataSize::bytes(bytes), res,
                                  [&](SimTime t, bool) { arrival = t; }));
    sim.run_until();
    EXPECT_TRUE(arrival.has_value());
    return arrival.value_or(SimTime::zero());
  }
};

TEST_F(ReservationFixture, ResidualRateArithmeticIsExact) {
  // 8 Gb/s, 1000-byte packet: 1 us at the full rate.
  const auto link = add(0, 1);
  EXPECT_EQ(send(link, 0, 1000).us(), 1.0);

  // Carving half leaves the shared residual at exactly half the rate:
  // the same packet now serializes in 2 us.
  const auto res = spine.reserve(0, 1, 0.5);
  ASSERT_TRUE(res.has_value());
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(link, 0, fabric::SpineDiscipline::kRateShare), 0.5);
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(link, 0, 1000) - t0).us(), 2.0);

  // The reserved slice is an independent FIFO at the carved rate: a
  // reserved and a shared packet sent back-to-back do not queue
  // behind each other (both arrive 2 us after injection).
  const SimTime t1 = sim.now();
  std::optional<SimTime> shared_arrival;
  std::optional<SimTime> reserved_arrival;
  spine.send_packet(link, 0, DataSize::bytes(1000),
                    [&](SimTime t, bool) { shared_arrival = t; });
  spine.send_packet(link, 0, DataSize::bytes(1000), *res,
                    [&](SimTime t, bool) { reserved_arrival = t; });
  sim.run_until();
  ASSERT_TRUE(shared_arrival && reserved_arrival);
  EXPECT_EQ((*shared_arrival - t1).us(), 2.0);
  EXPECT_EQ((*reserved_arrival - t1).us(), 2.0);
  EXPECT_GT(spine.counters().get("spine.reserved_bytes"), 0u);

  // Releasing restores the full rate exactly.
  spine.release(*res);
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(link, 0, fabric::SpineDiscipline::kRateShare), 0.0);
  const SimTime t2 = sim.now();
  EXPECT_EQ((send(link, 0, 1000) - t2).us(), 1.0);
}

TEST_F(ReservationFixture, ReverseDirectionIsNeverTouchedByACarve) {
  const auto link = add(0, 1);
  const auto res = spine.reserve(0, 1, 0.5);
  ASSERT_TRUE(res.has_value());
  // The carve is per direction of travel: 1 -> 0 still runs at the
  // full rate.
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(link, 1, fabric::SpineDiscipline::kRateShare), 0.0);
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(link, 1, 1000) - t0).us(), 1.0);
}

TEST_F(ReservationFixture, AdmissionRefusesOversubscriptionAndDuplicates) {
  add(0, 1);
  EXPECT_THROW(static_cast<void>(spine.reserve(0, 1, 0.0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(spine.reserve(0, 1, 1.0)), std::invalid_argument);
  // A NaN share would make the residual rate NaN.
  for (const double v : {std::nan(""), kInf, -kInf}) {
    EXPECT_THROW(static_cast<void>(spine.reserve(0, 1, v)), std::invalid_argument) << v;
  }
  EXPECT_EQ(spine.residual_rate(0, 0), phy::DataRate::gbps(8.0));
  EXPECT_FALSE(spine.reserve(0, 0, 0.5).has_value());  // self pair
  EXPECT_FALSE(spine.reserve(0, 7, 0.5).has_value());  // unreachable
  const auto first = spine.reserve(0, 1, 0.6);
  ASSERT_TRUE(first.has_value());
  // Same pair again: refused while the first is live.
  EXPECT_FALSE(spine.reserve(0, 1, 0.1).has_value());
  // Another pair over the same direction: 0.6 + 0.6 has no headroom.
  // (A second link 1 -> 2 makes pair (0, 2) routable through link 0.)
  add(1, 2);
  EXPECT_FALSE(spine.reserve(0, 2, 0.6).has_value());
  EXPECT_EQ(spine.counters().get("spine.reservations_refused"), 1u);
  // A fitting fraction is admitted, and no partial carve leaked from
  // the refusal.
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(0, 0, fabric::SpineDiscipline::kRateShare), 0.6);
  EXPECT_TRUE(spine.reserve(0, 2, 0.3).has_value());
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(0, 0, fabric::SpineDiscipline::kRateShare), 0.9);
}

TEST_F(ReservationFixture, SurvivesRepricingButDiesWithItsLink) {
  add(0, 1);
  const auto l12 = add(1, 2);
  const auto res = spine.reserve(0, 2, 0.5);
  ASSERT_TRUE(res.has_value());
  ASSERT_EQ(spine.claim_route(*res).size(), 2u);

  // Repricing every crossed link does not disturb the pinned circuit.
  spine.set_link_cost(0, 50.0);
  spine.set_link_cost(l12, 50.0);
  EXPECT_TRUE(spine.claim_active(*res));
  EXPECT_EQ(spine.claim_route(*res).size(), 2u);

  // A failed link on the route preempts it: capacity returns, the
  // handle goes stale, and the preemption is counted.
  spine.set_link_up(l12, false);
  EXPECT_FALSE(spine.claim_active(*res));
  EXPECT_DOUBLE_EQ(spine.claimed_fraction(0, 0, fabric::SpineDiscipline::kRateShare), 0.0);
  EXPECT_EQ(spine.counters().get("spine.reservation_preemptions"), 1u);

  // Traffic still holding the stale handle falls back to the shared
  // residual of a surviving link instead of erroring.
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(0, 0, 1000, *res) - t0).us(), 1.0);  // full rate again

  // Release of a stale handle is an idempotent no-op.
  spine.release(*res);
  EXPECT_EQ(spine.counters().get("spine.reservation_releases"), 0u);
}

TEST_F(ReservationFixture, RecycledSlotsStaleifyOldHandles) {
  add(0, 1);
  const auto first = spine.reserve(0, 1, 0.4);
  ASSERT_TRUE(first.has_value());
  spine.release(*first);
  const std::uint64_t version_after_release = spine.claim_version(fabric::SpineDiscipline::kRateShare);
  // The next reservation reuses the slot with a bumped generation:
  // the old handle stays stale.
  const auto second = spine.reserve(1, 0, 0.4);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_NE(second->generation, first->generation);
  EXPECT_FALSE(spine.claim_active(*first));
  EXPECT_TRUE(spine.claim_active(*second));
  EXPECT_GT(spine.claim_version(fabric::SpineDiscipline::kRateShare), version_after_release);
  EXPECT_THROW(static_cast<void>(spine.claim_route(*first)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet-level: transport binding and the controller policy.
// ---------------------------------------------------------------------------

RuntimeConfig rack_config() {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;
  return cfg;
}

/// Two racks over one slow spine link; the controller runs the
/// reservation policy with fast hysteresis so a short test exercises
/// both edges.
FleetConfig policy_fleet(bool reservations) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.rate = phy::DataRate::gbps(10);
  fc.spine.push_back(s);
  fc.enable_controller = true;
  fc.controller.epoch = 20_us;
  fc.controller.reservations.enable = reservations;
  fc.controller.reservations.fraction = 0.5;
  fc.controller.reservations.hot_bytes_per_epoch = 8 * 1024;
  fc.controller.reservations.idle_bytes_per_epoch = 1024;
  fc.controller.reservations.promote_after = 2;
  fc.controller.reservations.demote_after = 3;
  return fc;
}

TEST(FleetReservationPolicy, PromotesHotPairsAndDemotesIdleOnesWithHysteresis) {
  FleetRuntime fleet(policy_fleet(true));
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);  // ~800 us on 10G: many epochs hot
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->failed);
  // The pair went hot for >= promote_after epochs and was promoted;
  // its packets rode the carved slice.
  EXPECT_EQ(fleet.controller().promotions(), 1u);
  EXPECT_GT(fleet.spine().counters().get("spine.reserved_bytes"), 0u);
  EXPECT_FALSE(fleet.spine().find_claims(0, 1, fabric::SpineDiscipline::kRateShare).empty());
  // Hysteresis: one idle epoch is not a demotion...
  EXPECT_EQ(fleet.controller().demotions(), 0u);
  fleet.run_until(fleet.now() + 40_us);
  EXPECT_EQ(fleet.controller().demotions(), 0u);
  // ...but demote_after consecutive idle epochs are.
  fleet.run_until(fleet.now() + 200_us);
  EXPECT_EQ(fleet.controller().demotions(), 1u);
  EXPECT_TRUE(fleet.spine().find_claims(0, 1, fabric::SpineDiscipline::kRateShare).empty());
  EXPECT_EQ(fleet.spine().claim_count(fabric::SpineDiscipline::kRateShare), 0u);
  fleet.stop();
}

TEST(FleetReservationPolicy, PolicyOffNeverReserves) {
  FleetRuntime fleet(policy_fleet(false));
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  fleet.stop();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(fleet.controller().promotions(), 0u);
  EXPECT_EQ(fleet.spine().claim_count(fabric::SpineDiscipline::kRateShare), 0u);
  EXPECT_EQ(fleet.spine().counters().get("spine.reserved_bytes"), 0u);
  EXPECT_EQ(fleet.spine().claim_version(fabric::SpineDiscipline::kRateShare), 0u);
}

TEST(FleetReservationPolicy, PreemptedPairFallsBackAndKeepsDelivering) {
  // Two parallel spine links; the promoted circuit rides link 0, then
  // link 0 dies mid-flow: the reservation is preempted, packets fall
  // back to the shared residual of link 1, and the flow completes.
  FleetConfig fc = policy_fleet(true);
  SpineSpec s = fc.spine[0];
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(200_us, [&fleet] { fleet.spine().set_link_up(0, false); });
  fleet.start();
  fleet.run_until();
  fleet.stop();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_GE(fleet.controller().promotions(), 1u);
  EXPECT_EQ(fleet.spine().counters().get("spine.reservation_preemptions"), 1u);
  // Traffic kept flowing on the survivor after the preemption.
  EXPECT_GT(fleet.spine().link_packets(1, 0), 0u);
}

TEST(FleetReservationPolicy, RejectsBadPolicyConfig) {
  FleetConfig fc = policy_fleet(true);
  fc.controller.reservations.fraction = 1.0;
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
  fc.controller.reservations.fraction = 0.5;
  fc.controller.reservations.promote_after = 0;
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
  // Non-finite shares, costs, weights and half-lives are refused at
  // construction, not discovered mid-run (a NaN half-life would feed
  // NaN scores to the promotion sort).
  for (const double v : {std::nan(""), kInf, -kInf}) {
    const FleetConfig good = policy_fleet(true);
    const std::vector<std::function<void(runtime::FleetControllerConfig&)>> bad_fields = {
        [v](auto& c) { c.reservations.fraction = v; },
        [v](auto& c) { c.base_cost = v; },
        [v](auto& c) { c.utilization_weight = v; },
        [v](auto& c) { c.demand_half_life_epochs = v; },
    };
    for (const auto& set_bad : bad_fields) {
      FleetConfig bad_fc = good;
      set_bad(bad_fc.controller);
      EXPECT_THROW(FleetRuntime bad(bad_fc), std::invalid_argument) << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Default-path regression and skewed-scenario determinism.
// ---------------------------------------------------------------------------

TEST(FleetReservationPolicy, DefaultPacketizedPathIsUntouchedByTheReservationLayer) {
  // Arm A never touches the reservation API. Arm B carves and
  // releases a reservation before traffic starts. The shared path's
  // timing must be bit-identical: a released carve leaves no residue.
  auto run_arm = [](bool touch_reservations) {
    FleetConfig fc = policy_fleet(false);
    FleetRuntime fleet(fc);
    if (touch_reservations) {
      const auto res = fleet.spine().reserve(0, 1, 0.7);
      EXPECT_TRUE(res.has_value());
      fleet.spine().release(*res);
    }
    std::optional<runtime::FleetFlowResult> result;
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 3, 3);
    spec.dst = fleet.at(1, 0, 0);
    spec.size = DataSize::kilobytes(256);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
    fleet.start();
    fleet.run_until();
    fleet.stop();
    EXPECT_TRUE(result.has_value() && !result->failed);
    return std::pair{result->finished, fleet.sim().executed()};
  };
  const auto [finished_a, events_a] = run_arm(false);
  const auto [finished_b, events_b] = run_arm(true);
  EXPECT_EQ(finished_a.ps(), finished_b.ps());
  EXPECT_EQ(events_a, events_b);
}

TEST(SkewedFleetScenario, SameSeedRunsAreByteIdentical) {
  for (const auto kind : {workload::SkewedScenarioKind::kHotRackIncast,
                          workload::SkewedScenarioKind::kSlowSpineLeg,
                          workload::SkewedScenarioKind::kMixedRackSizes}) {
    workload::SkewedScenarioConfig cfg;
    cfg.kind = kind;
    cfg.reservations = true;
    cfg.loss_prob = 0.01;  // exercise the spine RNG too
    workload::SkewedFleetScenario a(cfg);
    const auto ra = a.run();
    workload::SkewedFleetScenario b(cfg);
    const auto rb = b.run();
    EXPECT_EQ(ra.hot.job_completion.ps(), rb.hot.job_completion.ps());
    EXPECT_EQ(ra.background.job_completion.ps(), rb.background.job_completion.ps());
    EXPECT_EQ(ra.promotions, rb.promotions);
    EXPECT_EQ(a.fleet().metrics_table().to_string(),
              b.fleet().metrics_table().to_string());
  }
}

TEST(SkewedFleetScenario, HotRackIncastShowsTheReservationCrossover) {
  // The acceptance anchor: with a hot rack pair, reservations improve
  // that pair's job completion while the shared residual's
  // degradation stays bounded (under the 1/(1 - fraction) = 2.5x
  // worst case by a wide margin).
  workload::SkewedScenarioConfig cfg;
  cfg.kind = workload::SkewedScenarioKind::kHotRackIncast;
  cfg.reservations = false;
  workload::SkewedFleetScenario off(cfg);
  const auto packet = off.run();
  cfg.reservations = true;
  workload::SkewedFleetScenario on(cfg);
  const auto reserved = on.run();
  EXPECT_GE(reserved.promotions, 1u);
  EXPECT_GT(reserved.reserved_bytes, 0u);
  EXPECT_LT(reserved.hot.job_completion.ps(), packet.hot.job_completion.ps());
  EXPECT_GT(reserved.background.job_completion.ps(),
            packet.background.job_completion.ps());
  EXPECT_LT(reserved.background.job_completion.ps(),
            packet.background.job_completion.ps() * 2);
  EXPECT_EQ(packet.hot.failed + packet.background.failed, 0u);
  EXPECT_EQ(reserved.hot.failed + reserved.background.failed, 0u);
}

// ---------------------------------------------------------------------------
// Fleet flow slot recycling (the Network::flows_ pattern, one layer up).
// ---------------------------------------------------------------------------

TEST(FleetFlowChurn, SequentialFlowsHoldThePoolAtPeakConcurrency) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  constexpr int kFlows = 2000;
  int completed = 0;
  // Each completion immediately starts the next flow from inside the
  // callback — the recycled-before-callback slot must be reusable.
  std::function<void()> chain = [&] {
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(4);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) {
      ASSERT_FALSE(r.failed);
      if (++completed < kFlows) chain();
    });
  };
  chain();
  fleet.run_until();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(fleet.flows_completed(), static_cast<std::uint64_t>(kFlows));
  // One flow alive at a time: the pool never grew past one slot.
  EXPECT_EQ(fleet.flow_slots(), 1u);
  EXPECT_EQ(fleet.free_flow_slots(), 1u);
}

TEST(FleetFlowChurn, SameRackChurnRecyclesToo) {
  // Same-rack flows skip the packet pipeline: each is one plain
  // Network flow whose completion finishes the fleet flow. Chained
  // from the completion callback, they must recycle the one slot.
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  int completed = 0;
  std::function<void()> chain = [&] {
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(1, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(4);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) {
      ASSERT_FALSE(r.failed);
      EXPECT_EQ(r.rack_legs, 1);
      EXPECT_EQ(r.spine_hops, 0);
      if (++completed < 500) chain();
    });
  };
  chain();
  fleet.run_until();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(fleet.flows_completed(), 500u);
  EXPECT_EQ(fleet.flow_slots(), 1u);
  EXPECT_EQ(fleet.free_flow_slots(), 1u);
  EXPECT_EQ(fleet.rack(1).network().flows_completed(), 500u);
  EXPECT_EQ(fleet.spine().counters().get("spine.packets"), 0u);
}

TEST(FleetFlowChurn, ConcurrentBurstThenChurnKeepsThePeakBound) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  constexpr int kBurst = 8;
  constexpr int kWaves = 50;
  int launched = 0;
  int completed = 0;
  std::function<void()> launch = [&] {
    ++launched;
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(4);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) {
      ASSERT_FALSE(r.failed);
      ++completed;
      if (launched < kBurst * kWaves) launch();
    });
  };
  for (int i = 0; i < kBurst; ++i) launch();
  fleet.run_until();
  EXPECT_EQ(completed, kBurst * kWaves);
  // The pool is bounded by the peak concurrency, not the flow count.
  EXPECT_LE(fleet.flow_slots(), static_cast<std::size_t>(kBurst));
}

}  // namespace
}  // namespace rsf
