#include "fabric/topology.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fabric/builders.hpp"

namespace rsf::fabric {
namespace {

using phy::LinkId;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

/// Build a 3x3 grid with one PHY parameter overridden: a value that
/// would hang a bounded run or fail every flow must be refused when the
/// rack is built.
template <typename Override>
void expect_rack_refused(Override set) {
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 3;
  set(p);
  EXPECT_THROW(static_cast<void>(build_grid(&sim, p)), std::invalid_argument);
}

TEST(Topology, RefusesNanHopMeters) {
  expect_rack_refused([](RackParams& p) { p.hop_meters = std::nan(""); });
}

TEST(Topology, RefusesInfiniteHopMeters) {
  expect_rack_refused(
      [](RackParams& p) { p.hop_meters = std::numeric_limits<double>::infinity(); });
}

TEST(Topology, RefusesZeroLaneRate) {
  expect_rack_refused([](RackParams& p) { p.lane_rate = phy::DataRate::gbps(0); });
}

TEST(Topology, RefusesNegativeLaneRate) {
  expect_rack_refused([](RackParams& p) { p.lane_rate = phy::DataRate::gbps(-25); });
}

TEST(Topology, RefusesBerAboveOne) {
  expect_rack_refused([](RackParams& p) { p.initial_ber = 2.0; });
}

TEST(Topology, RefusesNegativeBer) {
  expect_rack_refused([](RackParams& p) { p.initial_ber = -1.0; });
}

TEST(Topology, GridBuilderWiresExpectedLinkCount) {
  Simulator sim;
  RackParams p;
  p.width = 4;
  p.height = 3;
  Rack rack = build_grid(&sim, p);
  // Grid links: 3 per row x 3 rows horizontal (w-1)*h + w*(h-1) vertical.
  EXPECT_EQ(rack.plant->link_count(), static_cast<std::size_t>((4 - 1) * 3 + 4 * (3 - 1)));
  EXPECT_EQ(rack.topology->node_count(), 12u);
}

TEST(Topology, LinksAtCorrectDegree) {
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 3;
  Rack rack = build_grid(&sim, p);
  // Corner has degree 2, edge 3, centre 4.
  EXPECT_EQ(rack.topology->links_at(rack.node_at(0, 0)).size(), 2u);
  EXPECT_EQ(rack.topology->links_at(rack.node_at(1, 0)).size(), 3u);
  EXPECT_EQ(rack.topology->links_at(rack.node_at(1, 1)).size(), 4u);
}

TEST(Topology, AllInitialLinksUsable) {
  Simulator sim;
  Rack rack = build_grid(&sim, RackParams{});
  for (LinkId id : rack.plant->link_ids()) {
    EXPECT_TRUE(rack.topology->usable(id));
  }
}

TEST(Topology, LinkBetweenFindsAdjacent) {
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 1;
  Rack rack = build_grid(&sim, p);
  EXPECT_TRUE(rack.topology->link_between(0, 1).has_value());
  EXPECT_FALSE(rack.topology->link_between(0, 2).has_value());
}

TEST(Topology, CoordsAssigned) {
  Simulator sim;
  RackParams p;
  p.width = 4;
  p.height = 2;
  Rack rack = build_grid(&sim, p);
  const auto c = rack.topology->coord(rack.node_at(3, 1));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->x, 3);
  EXPECT_EQ(c->y, 1);
  EXPECT_EQ(rack.topology->grid_w(), 4);
  EXPECT_EQ(rack.topology->grid_h(), 2);
}

TEST(Topology, VersionBumpsOnReconfiguration) {
  Simulator sim;
  Rack rack = build_grid(&sim, RackParams{});
  const std::uint64_t v0 = rack.topology->version();
  const LinkId some = rack.plant->link_ids().front();
  rack.engine->submit(plp::SplitCommand{some, 1});
  sim.run_until();
  EXPECT_GT(rack.topology->version(), v0);
}

TEST(Topology, BusyLinkNotUsable) {
  Simulator sim;
  Rack rack = build_grid(&sim, RackParams{});
  const LinkId some = rack.plant->link_ids().front();
  rack.engine->submit(plp::SetFecCommand{some, phy::FecScheme::kRsKp4});
  // During actuation the link is busy -> unusable.
  EXPECT_FALSE(rack.topology->usable(some));
  sim.run_until();
  EXPECT_TRUE(rack.topology->usable(some));
}

TEST(Topology, TorusBuilderAddsWraparounds) {
  Simulator sim;
  RackParams p;
  p.width = 4;
  p.height = 4;
  Rack grid_rack = build_grid(&sim, p);
  Simulator sim2;
  Rack torus_rack = build_torus(&sim2, p);
  EXPECT_EQ(torus_rack.plant->link_count(),
            grid_rack.plant->link_count() + 4 /*rows*/ + 4 /*cols*/);
}

TEST(Topology, ChainAndRingBuilders) {
  Simulator sim;
  Rack chain = build_chain(&sim, 5, RackParams{});
  EXPECT_EQ(chain.plant->link_count(), 4u);
  EXPECT_EQ(chain.topology->node_count(), 5u);

  Simulator sim2;
  Rack ring = build_ring(&sim2, 5, RackParams{});
  EXPECT_EQ(ring.plant->link_count(), 5u);
  EXPECT_TRUE(ring.topology->link_between(4, 0).has_value());
}

TEST(Topology, BuilderValidation) {
  Simulator sim;
  RackParams bad;
  bad.lanes_per_link = 5;
  bad.lanes_per_cable = 2;
  EXPECT_THROW(build_grid(&sim, bad), std::invalid_argument);
  EXPECT_THROW(build_chain(&sim, 1, RackParams{}), std::invalid_argument);
  EXPECT_THROW(build_ring(&sim, 2, RackParams{}), std::invalid_argument);
  EXPECT_THROW(build_grid(nullptr, RackParams{}), std::invalid_argument);
}

TEST(Topology, NodeAtBoundsChecked) {
  Simulator sim;
  Rack rack = build_grid(&sim, RackParams{});
  EXPECT_THROW(rack.node_at(-1, 0), std::out_of_range);
  EXPECT_THROW(rack.node_at(4, 0), std::out_of_range);
}

TEST(Topology, DarkLanesStayFree) {
  Simulator sim;
  RackParams p;
  p.lanes_per_cable = 4;
  p.lanes_per_link = 2;
  Rack rack = build_grid(&sim, p);
  // Every cable keeps 2 free lanes for the CRC to provision.
  for (std::size_t c = 0; c < rack.plant->cable_count(); ++c) {
    EXPECT_EQ(rack.plant->free_lanes(static_cast<phy::CableId>(c)).size(), 2u);
  }
}

TEST(Topology, RackPowerIncludesPlantAndSwitching) {
  Simulator sim;
  Rack rack = build_grid(&sim, RackParams{});
  const double total = rack.total_power_watts();
  EXPECT_GT(total, rack.plant->total_power_watts());
}

}  // namespace
}  // namespace rsf::fabric
