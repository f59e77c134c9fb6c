// Structural tests of the physical plant: lanes, cables, logical
// links, and the PLP #1/#2 operations with their invariants.
#include "phy/plant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.hpp"

namespace rsf::phy {
namespace {

using rsf::sim::SimTime;
using namespace rsf::sim::literals;

LanePowerParams test_power() { return LanePowerParams{1.0, 1.0, 0.1}; }

/// Plant with a 4-node chain 0-1-2-3, each cable 4 lanes of 25G, 2 m.
struct ChainFixture {
  PhysicalPlant plant;
  CableId c01, c12, c23;

  ChainFixture() {
    c01 = plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
    c12 = plant.add_cable(1, 2, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
    c23 = plant.add_cable(2, 3, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
  }
};

TEST(Lane, StateMachine) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_EQ(lane.state(), LaneState::kOff);
  EXPECT_FALSE(lane.is_up());
  lane.begin_training();
  EXPECT_EQ(lane.state(), LaneState::kTraining);
  lane.complete_training();
  EXPECT_TRUE(lane.is_up());
  lane.power_off();
  EXPECT_EQ(lane.state(), LaneState::kOff);
}

TEST(Lane, CompleteTrainingRequiresTraining) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_THROW(lane.complete_training(), std::logic_error);
}

TEST(Lane, PowerFollowsState) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_DOUBLE_EQ(lane.power_watts(), 0.1);
  lane.begin_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), 1.0);
  lane.complete_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), 1.0);
}

TEST(Cable, ValidatesConstruction) {
  PhysicalPlant plant;
  EXPECT_THROW(plant.add_cable(0, 0, 2.0, Medium::kFiber, 4, DataRate::gbps(25)),
               std::invalid_argument);
  EXPECT_THROW(plant.add_cable(0, 1, 2.0, Medium::kFiber, 0, DataRate::gbps(25)),
               std::invalid_argument);
  EXPECT_THROW(plant.add_cable(0, 1, -1.0, Medium::kFiber, 4, DataRate::gbps(25)),
               std::invalid_argument);
}

TEST(Cable, EndpointQueries) {
  ChainFixture f;
  const Cable& c = f.plant.cable(f.c01);
  EXPECT_TRUE(c.connects(0));
  EXPECT_TRUE(c.connects(1));
  EXPECT_FALSE(c.connects(2));
  EXPECT_EQ(c.other_end(0), 1u);
  EXPECT_EQ(c.other_end(1), 0u);
  EXPECT_THROW(c.other_end(7), std::invalid_argument);
}

TEST(Cable, PropagationFromLengthAndMedium) {
  ChainFixture f;
  EXPECT_EQ(f.plant.cable(f.c01).propagation_delay(), 10_ns);  // 2 m fibre
}

TEST(Plant, FindCableEitherOrientation) {
  ChainFixture f;
  EXPECT_EQ(f.plant.find_cable(0, 1), f.c01);
  EXPECT_EQ(f.plant.find_cable(1, 0), f.c01);
  EXPECT_FALSE(f.plant.find_cable(0, 3).has_value());
}

TEST(Plant, CreateAdjacentLinkClaimsLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_TRUE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.link(id).lane_count(), 2);
  EXPECT_EQ(f.plant.lane_owner(LaneRef{f.c01, 0}), id);
  EXPECT_EQ(f.plant.lane_owner(LaneRef{f.c01, 1}), id);
  EXPECT_FALSE(f.plant.lane_owner(LaneRef{f.c01, 2}).has_value());
  EXPECT_EQ(f.plant.free_lanes(f.c01), (std::vector<int>{2, 3}));
  EXPECT_TRUE(f.plant.validate().empty()) << f.plant.validate();
}

TEST(Plant, DoubleClaimRejected) {
  ChainFixture f;
  f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_THROW(f.plant.create_adjacent_link(f.c01, {1, 2}), std::invalid_argument);
}

TEST(Plant, RejectsBadSegments) {
  ChainFixture f;
  // Broken chain: c01 then c23 skips node 2's cable.
  EXPECT_THROW(
      f.plant.create_link(0, 3, {LinkSegment{f.c01, {0}}, LinkSegment{f.c23, {0}}}),
      std::invalid_argument);
  // Unequal lane counts across segments.
  EXPECT_THROW(
      f.plant.create_link(0, 2, {LinkSegment{f.c01, {0, 1}}, LinkSegment{f.c12, {0}}}),
      std::invalid_argument);
  // Duplicate lane in a segment.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {0, 0}}}),
               std::invalid_argument);
  // Lane out of range.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {9}}}), std::invalid_argument);
  // Wrong terminus.
  EXPECT_THROW(f.plant.create_link(0, 2, {LinkSegment{f.c01, {0}}}), std::invalid_argument);
  // Zero lanes / no segments.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {}}}), std::invalid_argument);
  EXPECT_THROW(f.plant.create_link(0, 1, {}), std::invalid_argument);
}

TEST(Plant, DestroyReleasesLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  f.plant.destroy_link(id);
  EXPECT_FALSE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.free_lanes(f.c01).size(), 4u);
  EXPECT_THROW(f.plant.destroy_link(id), std::invalid_argument);
}

TEST(Plant, MultiSegmentLinkMetrics) {
  ChainFixture f;
  const LinkId id = f.plant.create_link(
      0, 3,
      {LinkSegment{f.c01, {0, 1}}, LinkSegment{f.c12, {0, 1}}, LinkSegment{f.c23, {0, 1}}},
      FecSpec::of(FecScheme::kNone));
  const LogicalLink& l = f.plant.link(id);
  EXPECT_EQ(l.bypass_joints(), 2);
  EXPECT_EQ(l.lane_count(), 2);
  EXPECT_DOUBLE_EQ(l.raw_rate().gbps_value(), 50.0);
  // 3 x 10ns cable flight + 2 x 25ns bypass joints.
  EXPECT_EQ(l.propagation_delay(), 30_ns + 50_ns);
  EXPECT_EQ(f.plant.total_bypass_joints(), 2);
}

TEST(Plant, LinkReadyOnlyWhenAllLanesUp) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_FALSE(f.plant.link(id).ready());
  f.plant.lane_begin_training(id);
  EXPECT_FALSE(f.plant.link(id).ready());
  f.plant.lane_complete_training(id);
  EXPECT_TRUE(f.plant.link(id).ready());
  f.plant.lane_power_off(id);
  EXPECT_FALSE(f.plant.link(id).ready());
}

TEST(Plant, SplitPreservesLanesAndSegments) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2, 3});
  f.plant.lane_begin_training(id);
  f.plant.lane_complete_training(id);
  const auto [a, b] = f.plant.split_link(id, 1);
  EXPECT_FALSE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.link(a).lane_count(), 1);
  EXPECT_EQ(f.plant.link(b).lane_count(), 3);
  // Lane states survive the split.
  EXPECT_TRUE(f.plant.link(a).ready());
  EXPECT_TRUE(f.plant.link(b).ready());
  EXPECT_TRUE(f.plant.validate().empty()) << f.plant.validate();
}

TEST(Plant, SplitRejectsDegenerateK) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_THROW(f.plant.split_link(id, 0), std::invalid_argument);
  EXPECT_THROW(f.plant.split_link(id, 2), std::invalid_argument);
  EXPECT_THROW(f.plant.split_link(id, -1), std::invalid_argument);
}

TEST(Plant, BundleRestoresOriginalWidth) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2, 3});
  const auto [a, b] = f.plant.split_link(id, 2);
  const LinkId merged = f.plant.bundle_links(a, b);
  EXPECT_EQ(f.plant.link(merged).lane_count(), 4);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BundleRequiresMatchingEndpoints) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  EXPECT_THROW(f.plant.bundle_links(l01, l12), std::invalid_argument);
  EXPECT_THROW(f.plant.bundle_links(l01, l01), std::invalid_argument);
}

TEST(Plant, BypassJoinConcatenates) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId joined = f.plant.bypass_join(l01, l12);
  const LogicalLink& l = f.plant.link(joined);
  EXPECT_TRUE(l.connects(0));
  EXPECT_TRUE(l.connects(2));
  EXPECT_EQ(l.bypass_joints(), 1);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BypassJoinRequiresSharedEndpointAndEqualLanes) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l23 = f.plant.create_adjacent_link(f.c23, {0});
  EXPECT_THROW(f.plant.bypass_join(l01, l23), std::invalid_argument);
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0, 1});
  EXPECT_THROW(f.plant.bypass_join(l01, l12), std::invalid_argument);
}

TEST(Plant, BypassJoinRejectsLoop) {
  ChainFixture f;
  const LinkId a = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId b = f.plant.create_adjacent_link(f.c01, {1});
  // Joining two parallel 0-1 links would make a 0-0 loop.
  EXPECT_THROW(f.plant.bypass_join(a, b), std::invalid_argument);
}

TEST(Plant, BypassSeverRestoresPieces) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId l23 = f.plant.create_adjacent_link(f.c23, {0});
  const LinkId j1 = f.plant.bypass_join(l01, l12);
  const LinkId j2 = f.plant.bypass_join(j1, l23);
  EXPECT_EQ(f.plant.link(j2).bypass_joints(), 2);

  const auto [left, right] = f.plant.bypass_sever(j2, 2);
  EXPECT_TRUE(f.plant.link(left).connects(0));
  EXPECT_TRUE(f.plant.link(left).connects(2));
  EXPECT_EQ(f.plant.link(left).bypass_joints(), 1);
  EXPECT_TRUE(f.plant.link(right).connects(2));
  EXPECT_TRUE(f.plant.link(right).connects(3));
  EXPECT_EQ(f.plant.link(right).bypass_joints(), 0);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BypassSeverRejectsNonJoint) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  EXPECT_THROW(f.plant.bypass_sever(l01, 0), std::invalid_argument);
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId j = f.plant.bypass_join(l01, l12);
  EXPECT_THROW(f.plant.bypass_sever(j, 0), std::invalid_argument);   // endpoint
  EXPECT_THROW(f.plant.bypass_sever(j, 3), std::invalid_argument);   // not on path
}

TEST(Plant, SetFecChangesLinkModel) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_EQ(f.plant.link(id).fec().scheme, FecScheme::kNone);
  f.plant.set_fec(id, FecSpec::of(FecScheme::kRsKp4));
  EXPECT_EQ(f.plant.link(id).fec().scheme, FecScheme::kRsKp4);
  const double raw = f.plant.link(id).raw_rate().gbps_value();
  EXPECT_LT(f.plant.link(id).effective_rate().gbps_value(), raw);
}

TEST(Plant, AccountFrameSpreadsBitsAcrossLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  rsf::sim::RandomStream rng(1);
  f.plant.account_frame(id, DataSize::bits(1000), rng);
  EXPECT_EQ(f.plant.cable(f.c01).lane(0).stats().bits_carried, 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(1).stats().bits_carried, 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(2).stats().bits_carried, 0u);
}

TEST(Plant, SetCableBerPropagatesToLinkModel) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1},
                                                 FecSpec::of(FecScheme::kRsKr4));
  f.plant.set_cable_ber(f.c01, 1e-5);
  EXPECT_DOUBLE_EQ(f.plant.link(id).worst_pre_fec_ber(), 1e-5);
  EXPECT_GT(f.plant.link(id).frame_loss_prob(DataSize::bytes(1500)), 0.0);
}

TEST(Plant, PowerAccountsStatesAndBypass) {
  ChainFixture f;
  // All 12 lanes off: 12 x 0.1 W.
  EXPECT_NEAR(f.plant.total_power_watts(), 1.2, 1e-9);
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  f.plant.lane_begin_training(l01);
  f.plant.lane_complete_training(l01);
  f.plant.lane_begin_training(l12);
  f.plant.lane_complete_training(l12);
  // Two lanes up now: 10 x 0.1 + 2 x 1.0.
  EXPECT_NEAR(f.plant.total_power_watts(), 3.0, 1e-9);
  const LinkId j = f.plant.bypass_join(l01, l12);
  // One bypass joint adds 0.3 W (default config).
  EXPECT_NEAR(f.plant.total_power_watts(), 3.3, 1e-9);
  EXPECT_NEAR(f.plant.link(j).power_watts(), 2.3, 1e-9);
}

TEST(Plant, LinkOneWayLatencyComposition) {
  ChainFixture f;
  const LinkId id =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  const LogicalLink& l = f.plant.link(id);
  const auto frame = DataSize::bytes(1500);
  const SimTime expected =
      l.serialization_delay(frame) + l.propagation_delay() + l.fec().latency;
  EXPECT_EQ(l.one_way_latency(frame), expected);
  EXPECT_GT(l.serialization_delay(frame), SimTime::zero());
}

// --- PLP #5: BER estimation from FEC decoder telemetry ---

TEST(BerEstimator, ReturnsZeroWithoutTrafficOrFec) {
  ChainFixture f;
  const LinkId coded =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  EXPECT_EQ(f.plant.estimated_pre_fec_ber(coded), 0.0);  // no traffic yet
  const LinkId uncoded = f.plant.create_adjacent_link(f.c12, {0, 1});
  rsf::sim::RandomStream rng(1);
  f.plant.account_frame(uncoded, DataSize::kilobytes(64), rng);
  EXPECT_EQ(f.plant.estimated_pre_fec_ber(uncoded), 0.0);  // no decoder => no telemetry
}

struct BerEstimatorCase {
  double true_ber;
  FecScheme scheme;
};

class BerEstimatorConvergence : public ::testing::TestWithParam<BerEstimatorCase> {};

TEST_P(BerEstimatorConvergence, TracksTrueBerWithinFactorTwo) {
  const auto& c = GetParam();
  PhysicalPlant plant;
  const CableId cable =
      plant.add_cable(0, 1, 2.0, Medium::kFiber, 2, DataRate::gbps(25), test_power());
  const LinkId link = plant.create_adjacent_link(cable, {0, 1}, FecSpec::of(c.scheme));
  plant.set_cable_ber(cable, c.true_ber);
  rsf::sim::RandomStream rng(7, "est");
  // ~64 MB of observed traffic: plenty of codewords at these BERs.
  for (int i = 0; i < 4096; ++i) {
    plant.account_frame(link, DataSize::kilobytes(16), rng);
  }
  const double est = plant.estimated_pre_fec_ber(link);
  EXPECT_GT(est, c.true_ber / 2) << "scheme=" << to_string(c.scheme);
  EXPECT_LT(est, c.true_ber * 2) << "scheme=" << to_string(c.scheme);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BerEstimatorConvergence,
    ::testing::Values(BerEstimatorCase{1e-7, FecScheme::kRsKr4},
                      BerEstimatorCase{1e-6, FecScheme::kRsKr4},
                      BerEstimatorCase{1e-5, FecScheme::kRsKp4},
                      BerEstimatorCase{1e-4, FecScheme::kRsKp4}));

// --- Property test: random op sequences keep invariants ---

/// Interior joints of a multi-segment link, in path order.
std::vector<NodeId> interior_joints(const PhysicalPlant& plant, LinkId id) {
  std::vector<NodeId> out;
  const LogicalLink& l = plant.link(id);
  NodeId cursor = l.end_a();
  for (std::size_t i = 0; i + 1 < l.segments().size(); ++i) {
    cursor = plant.cable(l.segments()[i].cable).other_end(cursor);
    out.push_back(cursor);
  }
  return out;
}

TEST(PlantProperty, RandomOpSequencePreservesInvariants) {
  rsf::sim::RandomStream rng(2024, "plant-fuzz");
  for (int trial = 0; trial < 20; ++trial) {
    PhysicalPlant plant;
    // A ring of 6 nodes, 4 lanes each cable.
    std::vector<CableId> cables;
    for (int i = 0; i < 6; ++i) {
      cables.push_back(plant.add_cable(static_cast<NodeId>(i),
                                       static_cast<NodeId>((i + 1) % 6), 2.0,
                                       Medium::kFiber, 4, DataRate::gbps(25), test_power()));
    }
    for (CableId c : cables) plant.create_adjacent_link(c, {0, 1, 2, 3});

    for (int op = 0; op < 60; ++op) {
      const auto ids = plant.link_ids();
      if (ids.empty()) break;
      const LinkId pick = ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
      const int action = static_cast<int>(rng.uniform_int(0, 3));
      try {
        switch (action) {
          case 0: {
            const int lanes = plant.link(pick).lane_count();
            if (lanes >= 2) plant.split_link(pick, 1 + static_cast<int>(rng.uniform_int(0, lanes - 2)));
            break;
          }
          case 1: {
            // Try to bundle with any sibling.
            for (LinkId other : plant.link_ids()) {
              if (other == pick || !plant.has_link(pick)) break;
              try {
                plant.bundle_links(pick, other);
                break;
              } catch (const std::invalid_argument&) {
              }
            }
            break;
          }
          case 2: {
            for (LinkId other : plant.link_ids()) {
              if (other == pick || !plant.has_link(pick)) break;
              try {
                plant.bypass_join(pick, other);
                break;
              } catch (const std::invalid_argument&) {
              }
            }
            break;
          }
          case 3: {
            const std::vector<NodeId> joints = interior_joints(plant, pick);
            if (!joints.empty()) {
              plant.bypass_sever(pick, joints[static_cast<std::size_t>(rng.uniform_int(
                                           0, static_cast<std::int64_t>(joints.size()) - 1))]);
            }
            break;
          }
          default:
            break;
        }
      } catch (const std::invalid_argument&) {
        // Rejected ops must leave the plant untouched; validate below.
      }
      ASSERT_TRUE(plant.validate().empty())
          << "trial " << trial << " op " << op << ": " << plant.validate();
    }
    // Total lane ownership never exceeds physical lanes.
    int owned = 0;
    for (CableId c : cables) {
      owned += 4 - static_cast<int>(plant.free_lanes(c).size());
    }
    EXPECT_LE(owned, 24);
  }
}

// --- Per-hop memos: every cached value equals its uncached expression ---

/// LogicalLink::frame_loss_prob recomputed without the memo.
double uncached_frame_loss(const PhysicalPlant& plant, const LogicalLink& l, DataSize frame) {
  double survive = 1.0;
  for (const LinkSegment& seg : l.segments()) {
    double seg_ber = 0.0;
    for (int lane : seg.lanes) {
      seg_ber = std::max(seg_ber, plant.cable(seg.cable).lane(lane).pre_fec_ber());
    }
    survive *= 1.0 - l.fec().frame_loss_prob(seg_ber, frame);
  }
  return 1.0 - survive;
}

/// Frame sizes in bits from 1 B to 9 KB, plus every codeword edge
/// +-1 bit of every coded scheme in that range.
std::vector<std::int64_t> memo_frame_bits() {
  std::vector<std::int64_t> bits;
  for (std::int64_t bytes : {1, 2, 63, 64, 65, 512, 1000, 1023, 1024, 1025, 1500, 4096, 8191,
                             9000, 9216}) {
    bits.push_back(bytes * 8);
  }
  for (FecScheme s : kAllFecSchemes) {
    const FecSpec spec = FecSpec::of(s);
    if (spec.n == 0) continue;
    const std::int64_t cw = static_cast<std::int64_t>(spec.k) * spec.symbol_bits;
    for (std::int64_t edge = cw; edge <= 9216 * 8; edge += cw) {
      for (std::int64_t d : {-1, 0, 1}) bits.push_back(edge + d);
    }
  }
  return bits;
}

TEST(LinkMemo, FrameLossAndPostFecEqualUncachedExpressions) {
  const std::vector<std::int64_t> frames = memo_frame_bits();
  const double bers[] = {0.0, 1e-15, 1e-12, 1e-8, 1e-4};
  rsf::sim::RandomStream order(11, "memo-order");
  for (FecScheme s : kAllFecSchemes) {
    ChainFixture f;
    const FecSpec spec = FecSpec::of(s);
    const LinkId single = f.plant.create_adjacent_link(f.c01, {0, 1}, spec);
    const LinkId a = f.plant.create_adjacent_link(f.c12, {0, 1}, spec);
    const LinkId b = f.plant.create_adjacent_link(f.c23, {0, 1}, spec);
    const LinkId joined = f.plant.bypass_join(a, b);  // segments over c12, c23
    for (double ber_1 : bers) {
      for (double ber_2 : bers) {
        f.plant.set_cable_ber(f.c01, ber_1);
        f.plant.set_cable_ber(f.c12, ber_1);
        f.plant.set_cable_ber(f.c23, ber_2);
        // Random order with repeats: misses, hits and evictions mix.
        for (std::size_t i = 0; i < 2 * frames.size(); ++i) {
          const auto pick = order.uniform_int(0, static_cast<std::int64_t>(frames.size()) - 1);
          const DataSize frame = DataSize::bits(frames[static_cast<std::size_t>(pick)]);
          for (LinkId id : {single, joined}) {
            const LogicalLink& l = f.plant.link(id);
            ASSERT_EQ(l.frame_loss_prob(frame), uncached_frame_loss(f.plant, l, frame))
                << to_string(s) << " link " << id << " bits " << frame.bit_count()
                << " ber " << ber_1 << "/" << ber_2;
          }
        }
        for (LinkId id : {single, joined}) {
          const LogicalLink& l = f.plant.link(id);
          ASSERT_EQ(l.post_fec_ber(), spec.post_fec_ber(l.worst_pre_fec_ber()))
              << to_string(s) << " link " << id << " ber " << ber_1 << "/" << ber_2;
        }
      }
    }
  }
}

TEST(LinkMemo, LaneBerChangedBehindThePlantMissesTheMemo) {
  ChainFixture f;
  const LinkId id =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  f.plant.set_cable_ber(f.c01, 1e-8);
  const LogicalLink& l = f.plant.link(id);
  const DataSize frame = DataSize::bytes(1024);
  const double loss_before = l.frame_loss_prob(frame);
  const double post_before = l.post_fec_ber();
  // One lane, directly: Lane::set_pre_fec_ber notifies nobody.
  f.plant.cable(f.c01).lane(1).set_pre_fec_ber(1e-4);
  EXPECT_EQ(l.frame_loss_prob(frame), uncached_frame_loss(f.plant, l, frame));
  EXPECT_NE(l.frame_loss_prob(frame), loss_before);
  EXPECT_EQ(l.post_fec_ber(), l.fec().post_fec_ber(1e-4));
  EXPECT_NE(l.post_fec_ber(), post_before);
}

TEST(LinkMemo, SetFecClearsTheMemos) {
  ChainFixture f;
  const LinkId id =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  f.plant.set_cable_ber(f.c01, 1e-5);
  const LogicalLink& l = f.plant.link(id);
  const DataSize frame = DataSize::bytes(1024);
  const double kr4_loss = l.frame_loss_prob(frame);
  const double kr4_post = l.post_fec_ber();
  // Same codeword geometry, weaker correction: the memo key is
  // unchanged, so only the invalidation can expose the new t.
  FecSpec weaker = FecSpec::of(FecScheme::kRsKr4);
  weaker.t = 2;
  f.plant.set_fec(id, weaker);
  EXPECT_EQ(l.frame_loss_prob(frame), uncached_frame_loss(f.plant, l, frame));
  EXPECT_GT(l.frame_loss_prob(frame), kr4_loss);
  EXPECT_EQ(l.post_fec_ber(), weaker.post_fec_ber(1e-5));
  EXPECT_GT(l.post_fec_ber(), kr4_post);
  // Uncoded: the key switches from codewords to frame bits.
  f.plant.set_fec(id, FecSpec::of(FecScheme::kNone));
  EXPECT_EQ(l.frame_loss_prob(frame), uncached_frame_loss(f.plant, l, frame));
  EXPECT_EQ(l.post_fec_ber(), 1e-5);
}

// --- account_frame: the memoized fast path against the pre-memo body ---

/// PhysicalPlant::account_frame as it was before the per-lane memos
/// and the single lane walk (its account_bits step inlined). The fast
/// path must match it draw for draw.
void reference_account_frame(PhysicalPlant& plant, LinkId id, DataSize frame,
                             rsf::sim::RandomStream& rng) {
  const LogicalLink& l = plant.link(id);
  const int lanes = l.lane_count();
  if (lanes == 0 || frame.bit_count() <= 0) return;
  const FecSpec& fec = l.fec();
  const auto per_lane = static_cast<std::uint64_t>(frame.bit_count() / lanes);
  for (const LinkSegment& seg : l.segments()) {
    for (int lane : seg.lanes) {
      plant.cable(seg.cable).lane(lane).mutable_stats().bits_carried += per_lane;
    }
  }
  if (fec.n == 0) return;
  const double payload_per_cw = static_cast<double>(fec.k * fec.symbol_bits);
  const double cw_total = std::ceil(static_cast<double>(frame.bit_count()) / payload_per_cw);
  for (const LinkSegment& seg : l.segments()) {
    Cable& c = plant.cable(seg.cable);
    for (int lane_idx : seg.lanes) {
      Lane& lane = c.lane(lane_idx);
      const double ber = lane.pre_fec_ber();
      if (ber <= 0) continue;
      const double p_sym = 1.0 - std::pow(1.0 - ber, fec.symbol_bits);
      const double mean = cw_total / lanes * fec.n * p_sym;
      lane.mutable_stats().corrected_codewords += rng.poisson(mean);
    }
  }
}

/// A 6-node ring of 4-lane cables with 4-, 2+2- and 1+1+1+1-lane links.
struct OracleSide {
  PhysicalPlant plant;
  std::vector<CableId> cables;
  rsf::sim::RandomStream rng{99, "account-frame-oracle"};

  OracleSide() {
    for (int i = 0; i < 6; ++i) {
      cables.push_back(plant.add_cable(static_cast<NodeId>(i),
                                       static_cast<NodeId>((i + 1) % 6), 2.0,
                                       Medium::kFiber, 4, DataRate::gbps(25), test_power()));
    }
    const FecSpec kr4 = FecSpec::of(FecScheme::kRsKr4);
    for (int i = 0; i < 6; ++i) {
      const CableId c = cables[static_cast<std::size_t>(i)];
      switch (i % 3) {
        case 0:
          plant.create_adjacent_link(c, {0, 1, 2, 3}, kr4);
          break;
        case 1:
          plant.create_adjacent_link(c, {0, 1}, kr4);
          plant.create_adjacent_link(c, {2, 3}, kr4);
          break;
        default:
          for (int lane = 0; lane < 4; ++lane) plant.create_adjacent_link(c, {lane}, kr4);
          break;
      }
    }
  }
};

TEST(AccountFrameOracle, MatchesPreMemoBodyDrawForDraw) {
  OracleSide fast;
  OracleSide ref;
  rsf::sim::RandomStream picker(2026, "account-frame-ops");
  const double bers[] = {0.0, 1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.3};
  const auto pick_ber = [&] {
    return bers[static_cast<std::size_t>(
        picker.uniform_int(0, static_cast<std::int64_t>(std::size(bers)) - 1))];
  };
  const auto pick_index = [&](std::size_t n) {
    return static_cast<std::size_t>(picker.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  // Each op is applied to both sides; structural ops that one side
  // rejects the other must reject too.
  const auto both = [&](auto&& op) {
    bool fast_threw = false;
    bool ref_threw = false;
    try {
      op(fast);
    } catch (const std::invalid_argument&) {
      fast_threw = true;
    }
    try {
      op(ref);
    } catch (const std::invalid_argument&) {
      ref_threw = true;
    }
    ASSERT_EQ(fast_threw, ref_threw);
  };
  int frames_accounted = 0;
  for (int op = 0; op < 1500; ++op) {
    const std::vector<LinkId> ids = fast.plant.link_ids();
    ASSERT_EQ(ids, ref.plant.link_ids());
    ASSERT_FALSE(ids.empty());
    const LinkId pick = ids[pick_index(ids.size())];
    const int action = static_cast<int>(picker.uniform_int(0, 11));
    if (action <= 4) {
      // A frame: 1 KB, an arbitrary size up to 9 KB, or empty.
      const int kind = static_cast<int>(picker.uniform_int(0, 9));
      const DataSize frame = kind < 5    ? DataSize::bytes(1024)
                             : kind < 9 ? DataSize::bits(picker.uniform_int(1, 9216 * 8))
                                        : DataSize::zero();
      fast.plant.account_frame(pick, frame, fast.rng);
      reference_account_frame(ref.plant, pick, frame, ref.rng);
      ++frames_accounted;
    } else if (action == 5) {
      const std::size_t c = pick_index(6);
      const double ber = pick_ber();
      both([&](OracleSide& s) { s.plant.set_cable_ber(s.cables[c], ber); });
    } else if (action == 6) {
      const std::size_t c = pick_index(6);
      const int lane = static_cast<int>(picker.uniform_int(0, 3));
      const double ber = pick_ber();
      both([&](OracleSide& s) { s.plant.cable(s.cables[c]).lane(lane).set_pre_fec_ber(ber); });
    } else if (action == 7) {
      const FecScheme scheme = kAllFecSchemes[pick_index(kAllFecSchemes.size())];
      both([&](OracleSide& s) { s.plant.set_fec(pick, FecSpec::of(scheme)); });
    } else if (action == 8) {
      const int lanes = fast.plant.link(pick).lane_count();
      if (lanes >= 2) {
        const int k = 1 + static_cast<int>(picker.uniform_int(0, lanes - 2));
        both([&](OracleSide& s) { s.plant.split_link(pick, k); });
      }
    } else if (action == 9 || action == 10) {
      const LinkId other = ids[pick_index(ids.size())];
      if (action == 9) {
        both([&](OracleSide& s) { s.plant.bundle_links(pick, other); });
      } else {
        both([&](OracleSide& s) { s.plant.bypass_join(pick, other); });
      }
    } else {
      const std::vector<NodeId> joints = interior_joints(fast.plant, pick);
      if (!joints.empty()) {
        const NodeId at = joints[pick_index(joints.size())];
        both([&](OracleSide& s) { s.plant.bypass_sever(pick, at); });
      }
    }
    for (std::size_t c = 0; c < 6; ++c) {
      for (int lane = 0; lane < 4; ++lane) {
        const LaneStats& a = fast.plant.cable(fast.cables[c]).lane(lane).stats();
        const LaneStats& b = ref.plant.cable(ref.cables[c]).lane(lane).stats();
        ASSERT_EQ(a.bits_carried, b.bits_carried) << "op " << op << " cable " << c;
        ASSERT_EQ(a.corrected_codewords, b.corrected_codewords) << "op " << op << " cable " << c;
      }
    }
    rsf::sim::RandomStream next_fast = fast.rng;
    rsf::sim::RandomStream next_ref = ref.rng;
    ASSERT_EQ(next_fast(), next_ref()) << "op " << op;
    ASSERT_EQ(next_fast.normal(0, 1), next_ref.normal(0, 1)) << "op " << op;
  }
  EXPECT_GT(frames_accounted, 500);
  // The draws did happen: corrected codewords were sampled somewhere.
  std::uint64_t corrected = 0;
  for (CableId c : fast.cables) {
    for (int lane = 0; lane < 4; ++lane) {
      corrected += fast.plant.cable(c).lane(lane).stats().corrected_codewords;
    }
  }
  EXPECT_GT(corrected, 0u);
}

// --- Reserved-link counter ---

std::size_t brute_force_reserved(const PhysicalPlant& plant) {
  std::size_t n = 0;
  for (LinkId id : plant.link_ids()) {
    if (plant.link(id).reserved_for().has_value()) ++n;
  }
  return n;
}

TEST(PlantProperty, ReservedLinkCountMatchesBruteForce) {
  rsf::sim::RandomStream rng(77, "reservation-fuzz");
  for (int trial = 0; trial < 10; ++trial) {
    PhysicalPlant plant;
    std::vector<CableId> cables;
    for (int i = 0; i < 6; ++i) {
      cables.push_back(plant.add_cable(static_cast<NodeId>(i),
                                       static_cast<NodeId>((i + 1) % 6), 2.0,
                                       Medium::kFiber, 4, DataRate::gbps(25), test_power()));
    }
    for (CableId c : cables) {
      plant.create_adjacent_link(c, {0, 1});
      plant.create_adjacent_link(c, {2, 3});
    }
    const auto pick_index = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    for (int op = 0; op < 200; ++op) {
      const std::vector<LinkId> ids = plant.link_ids();
      const int action = static_cast<int>(rng.uniform_int(0, 7));
      if (ids.empty() || action == 7) {
        // Re-provision a free lane pair so destroys don't drain the plant.
        const CableId c = cables[pick_index(cables.size())];
        const std::vector<int> free = plant.free_lanes(c);
        if (!free.empty()) plant.create_adjacent_link(c, {free.front()});
      } else {
        const LinkId pick = ids[pick_index(ids.size())];
        try {
          switch (action) {
            case 0:
              plant.set_reservation(pick, static_cast<std::uint64_t>(rng.uniform_int(1, 3)));
              break;
            case 1:
              plant.set_reservation(pick, std::nullopt);
              break;
            case 2:
              plant.destroy_link(pick);
              break;
            case 3: {
              const int lanes = plant.link(pick).lane_count();
              if (lanes >= 2) plant.split_link(pick, 1);
              break;
            }
            case 4:
              plant.bundle_links(pick, ids[pick_index(ids.size())]);
              break;
            case 5:
              plant.bypass_join(pick, ids[pick_index(ids.size())]);
              break;
            default: {
              const std::vector<NodeId> joints = interior_joints(plant, pick);
              if (!joints.empty()) plant.bypass_sever(pick, joints.front());
              break;
            }
          }
        } catch (const std::invalid_argument&) {
          // A rejected op changes nothing; the count must agree anyway.
        }
      }
      ASSERT_EQ(plant.reserved_link_count(), brute_force_reserved(plant))
          << "trial " << trial << " op " << op;
    }
  }
}

TEST(Plant, ReservationCountFollowsSetClearAndStructuralOps) {
  ChainFixture f;
  const LinkId a = f.plant.create_adjacent_link(f.c01, {0, 1});
  const LinkId b = f.plant.create_adjacent_link(f.c12, {0, 1});
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);
  f.plant.set_reservation(a, 7);
  f.plant.set_reservation(a, 8);  // re-owning is not a second reservation
  EXPECT_EQ(f.plant.reserved_link_count(), 1u);
  f.plant.set_reservation(b, 7);
  EXPECT_EQ(f.plant.reserved_link_count(), 2u);
  f.plant.set_reservation(b, std::nullopt);
  f.plant.set_reservation(b, std::nullopt);
  EXPECT_EQ(f.plant.reserved_link_count(), 1u);
  // Successor links start unreserved.
  f.plant.split_link(a, 1);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);
}

}  // namespace
}  // namespace rsf::phy
