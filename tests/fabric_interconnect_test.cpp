// Interconnect: the packet-switched spine layer. Routing edge cases
// (partitions, tie-breaking, self-routes), the version-stamped route
// cache (set_link_up flaps and repricing must invalidate; hits must
// equal a fresh search), per-packet FIFO serialization and loss
// accounting.
#include "fabric/interconnect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace rsf::fabric {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct SpineFixture : ::testing::Test {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine{&sim, &registry};

  SpineLinkId add(std::uint32_t a, std::uint32_t b, double cost = 1.0,
                  double loss = 0.0) {
    SpineLinkParams p;
    p.a = {a, 0};
    p.b = {b, 0};
    p.cost = cost;
    p.loss_prob = loss;
    return spine.add_link(p);
  }

  std::uint64_t hits() { return spine.counters().get("spine.route_cache_hits"); }
  std::uint64_t misses() { return spine.counters().get("spine.route_cache_misses"); }
};

TEST_F(SpineFixture, SelfRackRouteIsEmpty) {
  add(0, 1);
  const auto r = spine.route(0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
  // Self-routes to racks the spine has never seen behave the same.
  EXPECT_TRUE(spine.route(5, 5).has_value());
}

TEST_F(SpineFixture, PartitionedGraphReturnsNoRouteNotAHang) {
  // Two islands: {0, 1} and {2, 3}. Queries across return nullopt and
  // the simulation stays idle — nothing was scheduled.
  add(0, 1);
  add(2, 3);
  EXPECT_FALSE(spine.route(0, 2).has_value());
  EXPECT_FALSE(spine.route(1, 3).has_value());
  EXPECT_FALSE(spine.route(0, 7).has_value());  // rack id off the map
  EXPECT_TRUE(spine.route(2, 3).has_value());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run_until(), 0u);
}

TEST_F(SpineFixture, TieBreakPrefersLowestLinkId) {
  // Two parallel 0-1 links: the lower id wins deterministically.
  const SpineLinkId first = add(0, 1);
  add(0, 1);
  auto r = spine.route(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::vector<SpineLinkId>{first});

  // Diamond 0-1-3 vs 0-2-3, all unit cost: the expansion through the
  // lowest-id first edge (and lowest-id intermediate rack) wins.
  add(0, 2);   // id 2
  add(1, 3);   // id 3
  add(2, 3);   // id 4
  r = spine.route(0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<SpineLinkId>{0, 3}));
}

TEST_F(SpineFixture, RoutingIsCostAware) {
  // Direct 0-2 at cost 10 vs the two-hop 0-1-2 at cost 2.
  const SpineLinkId direct = add(0, 2, /*cost=*/10.0);
  const SpineLinkId leg01 = add(0, 1);
  const SpineLinkId leg12 = add(1, 2);
  auto r = spine.route(0, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<SpineLinkId>{leg01, leg12}));

  // Repricing the direct link below the detour flips the decision.
  spine.set_link_cost(direct, 1.0);
  r = spine.route(0, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::vector<SpineLinkId>{direct});

  // Equal cost: fewer hops win.
  spine.set_link_cost(direct, 2.0);
  r = spine.route(0, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, std::vector<SpineLinkId>{direct});
}

TEST_F(SpineFixture, RouteCacheHitReturnsSameRouteAsFreshSearch) {
  add(0, 1);
  add(1, 2);
  add(0, 2, /*cost=*/5.0);
  const auto first = spine.route(0, 2);  // miss: populates
  const auto second = spine.route(0, 2);  // hit
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, spine.compute_route(0, 2));
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 1u);
  // Unreachable results are cached too.
  EXPECT_FALSE(spine.route(0, 9).has_value());
  EXPECT_FALSE(spine.route(0, 9).has_value());
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(misses(), 2u);
}

TEST_F(SpineFixture, CacheInvalidatesOnLinkFlapsAndRepricing) {
  const SpineLinkId direct = add(0, 2);
  const SpineLinkId leg01 = add(0, 1);
  const SpineLinkId leg12 = add(1, 2);
  const std::uint64_t v0 = spine.version();

  ASSERT_EQ(*spine.route(0, 2), std::vector<SpineLinkId>{direct});
  // Down: the cached direct route must not survive the flap.
  spine.set_link_up(direct, false);
  EXPECT_GT(spine.version(), v0);
  ASSERT_EQ(*spine.route(0, 2), (std::vector<SpineLinkId>{leg01, leg12}));
  // Back up: the detour entry is invalidated in turn.
  spine.set_link_up(direct, true);
  ASSERT_EQ(*spine.route(0, 2), std::vector<SpineLinkId>{direct});

  // Controller-style repricing: each effective set_link_cost bumps the
  // version and the next query re-plans.
  const std::uint64_t v1 = spine.version();
  spine.set_link_cost(direct, 7.0);
  EXPECT_EQ(spine.version(), v1 + 1);
  ASSERT_EQ(*spine.route(0, 2), (std::vector<SpineLinkId>{leg01, leg12}));
  // A no-op repricing (same cost) must NOT thrash the cache.
  const std::uint64_t m = misses();
  spine.set_link_cost(direct, 7.0);
  EXPECT_EQ(spine.version(), v1 + 1);
  EXPECT_EQ(*spine.route(0, 2), (std::vector<SpineLinkId>{leg01, leg12}));
  EXPECT_EQ(misses(), m);  // served from cache
}

TEST_F(SpineFixture, SendPacketSerializesFifoPerDirection) {
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  p.rate = phy::DataRate::gbps(8);  // 1024 B -> 1.024 us serialization
  p.latency = 2_us;
  const SpineLinkId id = spine.add_link(p);

  const DataSize size = DataSize::bytes(1024);
  std::vector<SimTime> arrivals;
  ASSERT_TRUE(spine.send_packet(id, 0, size, [&](SimTime t, bool ok) {
    EXPECT_TRUE(ok);
    arrivals.push_back(t);
  }));
  ASSERT_TRUE(spine.send_packet(id, 0, size, [&](SimTime t, bool ok) {
    EXPECT_TRUE(ok);
    arrivals.push_back(t);
  }));
  // The reverse direction has its own FIFO: no queueing behind a->b.
  std::optional<SimTime> reverse;
  ASSERT_TRUE(spine.send_packet(id, 1, size, [&](SimTime t, bool) { reverse = t; }));
  sim.run_until();

  const SimTime ser = phy::transmission_time(size, p.rate);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], ser + p.latency);
  EXPECT_EQ(arrivals[1], ser + ser + p.latency);  // queued behind the first
  ASSERT_TRUE(reverse.has_value());
  EXPECT_EQ(*reverse, ser + p.latency);
  EXPECT_EQ(spine.link_packets(id, 0), 2u);
  EXPECT_EQ(spine.link_packets(id, 1), 1u);
  EXPECT_EQ(spine.busy_time(id, 0), ser + ser);
  EXPECT_EQ(spine.queue_backlog(id, 0), SimTime::zero());  // all drained
}

TEST_F(SpineFixture, QueueBacklogTracksBookedSerialization) {
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  p.rate = phy::DataRate::gbps(8);
  const SpineLinkId id = spine.add_link(p);
  const DataSize size = DataSize::bytes(1024);
  spine.send_packet(id, 0, size, nullptr);
  spine.send_packet(id, 0, size, nullptr);
  const SimTime ser = phy::transmission_time(size, p.rate);
  EXPECT_EQ(spine.queue_backlog(id, 0), ser + ser);
  EXPECT_EQ(spine.queue_backlog(id, 1), SimTime::zero());
}

TEST_F(SpineFixture, PacketLossIsSampledAndCounted) {
  const SpineLinkId id = add(0, 1, 1.0, /*loss=*/0.5);
  int delivered = 0;
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    spine.send_packet(id, 0, DataSize::bytes(256),
                      [&](SimTime, bool ok) { (ok ? delivered : lost)++; });
  }
  sim.run_until();
  EXPECT_EQ(delivered + lost, 200);
  EXPECT_GT(lost, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(spine.counters().get("spine.packet_drops"),
            static_cast<std::uint64_t>(lost));
  EXPECT_EQ(spine.link_drops(id, 0), static_cast<std::uint64_t>(lost));
  EXPECT_EQ(spine.counters().get("spine.packets"), 200u);
}

TEST_F(SpineFixture, DownLinkRefusesPackets) {
  const SpineLinkId id = add(0, 1);
  spine.set_link_up(id, false);
  EXPECT_FALSE(spine.send_packet(id, 0, DataSize::bytes(64), nullptr));
  EXPECT_EQ(spine.counters().get("spine.packets_refused"), 1u);
  EXPECT_EQ(spine.counters().get("spine.packets"), 0u);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST_F(SpineFixture, RejectsBadLinkParams) {
  SpineLinkParams same_rack;
  same_rack.a = {0, 0};
  same_rack.b = {0, 1};
  EXPECT_THROW(spine.add_link(same_rack), std::invalid_argument);

  SpineLinkParams bad_cost;
  bad_cost.a = {0, 0};
  bad_cost.b = {1, 0};
  bad_cost.cost = 0.0;
  EXPECT_THROW(spine.add_link(bad_cost), std::invalid_argument);

  // loss_prob accepts the closed interval: 1.0 is a legal blackhole
  // link (routes normally, drops everything); only out-of-range
  // probabilities are rejected.
  SpineLinkParams bad_loss;
  bad_loss.a = {0, 0};
  bad_loss.b = {1, 0};
  bad_loss.loss_prob = 1.01;
  EXPECT_THROW(spine.add_link(bad_loss), std::invalid_argument);
  bad_loss.loss_prob = -0.01;
  EXPECT_THROW(spine.add_link(bad_loss), std::invalid_argument);

  // A negative latency would schedule an arrival before its send;
  // zero stays legal.
  SpineLinkParams bad_latency;
  bad_latency.a = {0, 0};
  bad_latency.b = {1, 0};
  bad_latency.latency = SimTime::zero() - SimTime::microseconds(50);
  EXPECT_THROW(spine.add_link(bad_latency), std::invalid_argument);
  bad_latency.latency = SimTime::zero() - SimTime::picoseconds(1);
  EXPECT_THROW(spine.add_link(bad_latency), std::invalid_argument);

  // Non-finite rates, costs and loss probabilities are refused too: a
  // NaN rate or cost would reach the float-to-integer cast in
  // transmission_time.
  for (const double v : {std::nan(""), kInf, -kInf}) {
    SpineLinkParams p;
    p.a = {0, 0};
    p.b = {1, 0};
    p.rate = phy::DataRate::gbps(v);
    EXPECT_THROW(spine.add_link(p), std::invalid_argument) << v;
    p.rate = phy::DataRate::gbps(400);
    p.cost = v;
    EXPECT_THROW(spine.add_link(p), std::invalid_argument) << v;
    p.cost = 1.0;
    p.loss_prob = v;
    EXPECT_THROW(spine.add_link(p), std::invalid_argument) << v;
  }
  EXPECT_EQ(spine.link_count(), 0u);
  bad_latency.latency = SimTime::zero();
  EXPECT_NO_THROW(spine.add_link(bad_latency));

  const SpineLinkId id = add(0, 1);
  EXPECT_THROW(spine.set_link_cost(id, -1.0), std::invalid_argument);
  for (const double v : {std::nan(""), kInf, -kInf}) {
    EXPECT_THROW(spine.set_link_cost(id, v), std::invalid_argument) << v;
  }
  EXPECT_EQ(spine.link_cost(id), 1.0);
  EXPECT_THROW(spine.set_link_cost(99, 1.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(spine.link_packets(id, 7)), std::invalid_argument);
}

}  // namespace
}  // namespace rsf::fabric
