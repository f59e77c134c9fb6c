#include "fabric/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>

#include "fabric/builders.hpp"
#include "sim/random.hpp"

namespace rsf::fabric {
namespace {

using phy::LinkId;
using phy::NodeId;
using rsf::sim::Simulator;

struct GridFixture : ::testing::Test {
  Simulator sim;
  Rack rack;

  GridFixture() {
    RackParams p;
    p.width = 4;
    p.height = 4;
    rack = build_grid(&sim, p);
  }
};

TEST_F(GridFixture, NextHopNulloptAtDestination) {
  EXPECT_FALSE(rack.router->next_hop(3, 3).has_value());
}

TEST_F(GridFixture, MinCostFindsManhattanPath) {
  // 0 (0,0) -> 15 (3,3): 6 hops on a 4x4 grid.
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(3, 3)), 6);
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(1, 0)), 1);
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(0, 0)), 0);
}

TEST_F(GridFixture, PathWalksConnectedLinks) {
  const NodeId src = rack.node_at(0, 0);
  const NodeId dst = rack.node_at(3, 2);
  const auto path = rack.router->path(src, dst);
  ASSERT_EQ(path.size(), 5u);
  NodeId at = src;
  for (LinkId id : path) {
    const auto& l = rack.plant->link(id);
    ASSERT_TRUE(l.connects(at));
    at = l.other_end(at);
  }
  EXPECT_EQ(at, dst);
}

TEST_F(GridFixture, PathCostIsPositiveAndAdditive) {
  const auto c1 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  const auto c2 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(2, 0));
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(*c1, 0.0);
  EXPECT_NEAR(*c2, 2.0 * *c1, 1e-6);
  EXPECT_DOUBLE_EQ(rack.router->path_cost(5, 5).value(), 0.0);
}

TEST_F(GridFixture, UnreachableAfterLinkShutdown) {
  // Cut both links of corner (0,0): unreachable.
  for (LinkId id : rack.topology->links_at(rack.node_at(0, 0))) {
    rack.engine->submit(plp::ShutdownCommand{id});
  }
  sim.run_until();
  EXPECT_FALSE(rack.router->next_hop(rack.node_at(0, 0), rack.node_at(3, 3)).has_value());
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(3, 3)), -1);
  EXPECT_FALSE(rack.router->path_cost(rack.node_at(0, 0), rack.node_at(3, 3)).has_value());
}

TEST_F(GridFixture, PriceFnSteersRouting) {
  // Make the direct west-east row prohibitively expensive; the path
  // from (0,0) to (3,0) should then dodge through row 1.
  const NodeId src = rack.node_at(0, 0);
  const NodeId dst = rack.node_at(3, 0);
  EXPECT_EQ(rack.router->hop_count(src, dst), 3);

  rack.router->set_price_fn([this](LinkId id) {
    const auto& l = rack.plant->link(id);
    const auto ca = rack.topology->coord(l.end_a());
    const auto cb = rack.topology->coord(l.end_b());
    const bool in_row0 = ca && cb && ca->y == 0 && cb->y == 0;
    return in_row0 ? 1e9 : 100.0;
  });
  const int hops = rack.router->hop_count(src, dst);
  EXPECT_EQ(hops, 5);  // down, 3 east, up
  // Restoring default prices restores the short path.
  rack.router->set_price_fn(nullptr);
  EXPECT_EQ(rack.router->hop_count(src, dst), 3);
}

TEST_F(GridFixture, BumpPricesInvalidatesCache) {
  double price = 100.0;
  rack.router->set_price_fn([&price](LinkId) { return price; });
  const auto c1 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  price = 200.0;
  rack.router->bump_prices();
  const auto c2 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(*c2, *c1);
}

TEST_F(GridFixture, InfinitePriceExcludesLink) {
  // Price the (0,0)-(1,0) link infinite: routing goes around it.
  const auto direct = rack.topology->link_between(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(direct.has_value());
  rack.router->set_price_fn([&](LinkId id) {
    return id == *direct ? std::numeric_limits<double>::infinity() : 100.0;
  });
  const auto next = rack.router->next_hop(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(*next, *direct);
}

TEST_F(GridFixture, DefaultCostReflectsLatencyPlusHopPenalty) {
  const LinkId id = rack.plant->link_ids().front();
  const double cost = rack.router->default_cost(id);
  const double latency_ns =
      rack.plant->link(id).one_way_latency(phy::DataSize::bytes(1024)).ns();
  EXPECT_NEAR(cost, latency_ns + 450.0, 1.0);
}

TEST_F(GridFixture, DimensionOrderRoutesXThenY) {
  rack.router->set_policy(RoutingPolicy::kDimensionOrder);
  const NodeId src = rack.node_at(0, 0);
  const NodeId dst = rack.node_at(2, 2);
  // First hop must move in x.
  const auto first = rack.router->next_hop(src, dst);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(rack.plant->link(*first).other_end(src), rack.node_at(1, 0));
  // From (2,0) the x is correct: moves in y.
  const auto later = rack.router->next_hop(rack.node_at(2, 0), dst);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(rack.plant->link(*later).other_end(rack.node_at(2, 0)), rack.node_at(2, 1));
}

TEST(RouterTorus, DimensionOrderUsesWraparound) {
  Simulator sim;
  RackParams p;
  p.width = 4;
  p.height = 4;
  p.routing = RoutingPolicy::kDimensionOrder;
  Rack rack = build_torus(&sim, p);
  // 0 (0,0) -> (3,0): wrap is 1 hop, interior is 3.
  const auto first = rack.router->next_hop(rack.node_at(0, 0), rack.node_at(3, 0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(rack.plant->link(*first).other_end(rack.node_at(0, 0)), rack.node_at(3, 0));
}

TEST(RouterTorus, MinCostExploitsWraparound) {
  Simulator sim;
  RackParams p;
  p.width = 6;
  p.height = 6;
  Rack rack = build_torus(&sim, p);
  // Opposite corners on a 6x6 torus: <= 6 hops (3+3 with wraps),
  // where the grid needs 10.
  const int hops = rack.router->hop_count(rack.node_at(0, 0), rack.node_at(5, 5));
  EXPECT_LE(hops, 6);
  EXPECT_GE(hops, 2);
}

TEST(Router, NullTopologyRejected) {
  EXPECT_THROW(Router(nullptr), std::invalid_argument);
}

TEST_F(GridFixture, MemoizedNextHopEqualsFreshSearch) {
  // Every (at, dst) pair, asked twice of the long-lived router (the
  // second answer is the memo hit), must match what a cold router
  // computes from scratch.
  auto expect_all_equal_fresh = [&] {
    for (NodeId at = 0; at < 16; ++at) {
      for (NodeId dst = 0; dst < 16; ++dst) {
        Router cold(rack.topology.get());
        const auto fresh = cold.next_hop(at, dst);
        EXPECT_EQ(rack.router->next_hop(at, dst), fresh) << at << " -> " << dst;
        EXPECT_EQ(rack.router->next_hop(at, dst), fresh) << at << " -> " << dst;
      }
    }
  };
  expect_all_equal_fresh();
}

TEST_F(GridFixture, SetReservationBumpsTheVersionAndRefreshesTheMemo) {
  const NodeId a = rack.node_at(0, 0);
  const NodeId b = rack.node_at(1, 0);
  const auto direct = rack.topology->link_between(a, b);
  ASSERT_TRUE(direct.has_value());
  // Warm the memo on the direct hop.
  const auto before = rack.router->next_hop(a, b);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(*before, *direct);

  // Reserving the link must invalidate the memo: set_reservation
  // notifies the plant's change observers, which bump the topology
  // version the router's tables key on.
  const std::uint64_t version = rack.topology->version();
  rack.plant->set_reservation(*direct, 42);
  EXPECT_GT(rack.topology->version(), version);
  const auto around = rack.router->next_hop(a, b);
  ASSERT_TRUE(around.has_value());
  EXPECT_NE(*around, *direct);  // private circuits are invisible
  {
    Router cold(rack.topology.get());
    EXPECT_EQ(cold.next_hop(a, b), around);  // hit == fresh search
  }

  // A redundant set is a no-op (no version churn), and clearing the
  // reservation restores the direct hop.
  const std::uint64_t reserved_version = rack.topology->version();
  rack.plant->set_reservation(*direct, 42);
  EXPECT_EQ(rack.topology->version(), reserved_version);
  rack.plant->set_reservation(*direct, std::nullopt);
  EXPECT_EQ(rack.router->next_hop(a, b), before);
}

// --- The routing snapshot against the lazy per-destination Dijkstra -----

/// The min-cost router as it was before routing state became one
/// snapshot per (topology version, price generation): a distance table
/// per destination, built lazily by a Dijkstra that walks links_at()
/// and asks usable()/reserved_for()/the price for every arc, and a
/// lazily memoized argmin per (node, destination). Kept verbatim as
/// the oracle for the snapshot.
class LegacyRouter {
 public:
  using PriceFn = Router::PriceFn;

  explicit LegacyRouter(const Topology* topo) : topo_(topo) {
    tables_.resize(topo_->node_count());
  }

  void set_price_fn(PriceFn fn) {
    price_fn_ = std::move(fn);
    ++price_generation_;
  }
  void bump_prices() { ++price_generation_; }
  void set_hop_penalty_ns(double ns) {
    hop_penalty_ns_ = ns;
    ++price_generation_;
  }

  std::optional<phy::LinkId> next_hop(phy::NodeId at, phy::NodeId dst) {
    if (at == dst) return std::nullopt;
    return next_hop_min_cost(at, dst);
  }

  std::optional<double> path_cost(phy::NodeId src, phy::NodeId dst) {
    if (src == dst) return 0.0;
    if (dst >= tables_.size()) return std::nullopt;
    const DistTable& t = table_for(dst);
    if (src >= t.dist.size() || t.dist[src] == kUnreachable) return std::nullopt;
    return t.dist[src];
  }

  std::vector<phy::LinkId> path(phy::NodeId src, phy::NodeId dst) {
    std::vector<phy::LinkId> out;
    phy::NodeId at = src;
    for (std::uint32_t i = 0; i <= topo_->node_count() && at != dst; ++i) {
      const auto link = next_hop_min_cost(at, dst);
      if (!link) return {};
      out.push_back(*link);
      at = topo_->plant().link(*link).other_end(at);
    }
    return at == dst ? out : std::vector<phy::LinkId>{};
  }

  int hop_count(phy::NodeId src, phy::NodeId dst) {
    if (src == dst) return 0;
    const auto p = path(src, dst);
    return p.empty() ? -1 : static_cast<int>(p.size());
  }

 private:
  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();
  static constexpr phy::LinkId kNextUnknown = phy::kInvalidLink;
  static constexpr phy::LinkId kNextNone = phy::kInvalidLink - 1;

  struct DistTable {
    std::uint64_t topo_version = 0;
    std::uint64_t price_generation = 0;
    std::vector<double> dist;
    std::vector<phy::LinkId> next;
  };

  double default_cost(phy::LinkId link) const {
    const phy::LogicalLink& l = topo_->plant().link(link);
    return l.one_way_latency(phy::DataSize::bytes(1024)).ns() + hop_penalty_ns_;
  }

  double cost(phy::LinkId link) const {
    if (price_fn_) {
      const double p = price_fn_(link);
      if (!std::isnan(p)) return std::max(p, 0.0) + hop_penalty_ns_;
    }
    return default_cost(link);
  }

  DistTable& table_for(phy::NodeId dst) {
    DistTable& t = tables_[dst];
    if (t.topo_version == topo_->version() && t.price_generation == price_generation_ &&
        !t.dist.empty()) {
      return t;
    }
    const std::uint32_t n = topo_->node_count();
    t.topo_version = topo_->version();
    t.price_generation = price_generation_;
    t.dist.assign(n, kUnreachable);
    t.next.assign(n, kNextUnknown);

    using Item = std::pair<double, phy::NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    t.dist[dst] = 0.0;
    pq.emplace(0.0, dst);
    while (!pq.empty()) {
      const auto [d, node] = pq.top();
      pq.pop();
      if (d > t.dist[node]) continue;
      for (phy::LinkId id : topo_->links_at(node)) {
        if (!topo_->usable(id)) continue;
        if (topo_->plant().link(id).reserved_for().has_value()) continue;
        const phy::NodeId next = topo_->plant().link(id).other_end(node);
        if (next >= n) continue;
        const double nd = d + cost(id);
        if (nd < t.dist[next]) {
          t.dist[next] = nd;
          pq.emplace(nd, next);
        }
      }
    }
    return t;
  }

  std::optional<phy::LinkId> next_hop_min_cost(phy::NodeId at, phy::NodeId dst) {
    if (dst >= tables_.size()) return std::nullopt;
    DistTable& t = table_for(dst);
    if (at >= t.dist.size() || t.dist[at] == kUnreachable) return std::nullopt;
    if (t.next[at] != kNextUnknown) {
      return t.next[at] == kNextNone ? std::nullopt : std::optional(t.next[at]);
    }
    double best = kUnreachable;
    std::optional<phy::LinkId> best_link;
    for (phy::LinkId id : topo_->links_at(at)) {
      if (!topo_->usable(id)) continue;
      if (topo_->plant().link(id).reserved_for().has_value()) continue;
      const phy::NodeId next = topo_->plant().link(id).other_end(at);
      if (next >= t.dist.size() || t.dist[next] == kUnreachable) continue;
      const double through = cost(id) + t.dist[next];
      if (through < best) {
        best = through;
        best_link = id;
      }
    }
    t.next[at] = best_link.value_or(kNextNone);
    return best_link;
  }

  const Topology* topo_;
  PriceFn price_fn_;
  std::uint64_t price_generation_ = 1;
  double hop_penalty_ns_ = 450.0;
  std::vector<DistTable> tables_;
};

/// Every next_hop, path_cost and hop_count of `router` equals the
/// oracle's, over every (node, destination) pair including one
/// out-of-range id. Returns the first disagreement, empty if none.
std::string first_disagreement(Router& router, LegacyRouter& oracle, std::uint32_t nodes) {
  for (NodeId at = 0; at <= nodes; ++at) {
    for (NodeId dst = 0; dst <= nodes; ++dst) {
      const std::string where = std::to_string(at) + " -> " + std::to_string(dst);
      if (router.next_hop(at, dst) != oracle.next_hop(at, dst)) return "next_hop " + where;
      const auto cost = router.path_cost(at, dst);
      const auto want = oracle.path_cost(at, dst);
      // == on the doubles themselves: the snapshot must not move a bit.
      if (cost.has_value() != want.has_value() || (cost && !(*cost == *want))) {
        return "path_cost " + where;
      }
      if (router.hop_count(at, dst) != oracle.hop_count(at, dst)) return "hop_count " + where;
    }
  }
  return {};
}

/// One seeded random walk over every input the min-cost routes depend
/// on: prices (finite, +inf, NaN, negative; replaced or changed in
/// place and bumped), the hop penalty, lane failures and repairs,
/// reservations, and the PLP primitives that restructure or park
/// links. After every operation, and mid-actuation for PLP commands,
/// a long-lived router must answer exactly like the lazy Dijkstra.
TEST(RouterOracle, SnapshotMatchesLazyDijkstraOverRandomOps) {
  Simulator sim;
  RackParams p;
  p.width = 8;
  p.height = 8;
  p.lanes_per_cable = 2;
  p.lanes_per_link = 2;
  Rack rack = build_grid(&sim, p);
  const std::uint32_t nodes = rack.topology->node_count();
  phy::PhysicalPlant& plant = *rack.plant;
  plp::PlpEngine& engine = *rack.engine;
  Router router(rack.topology.get());
  LegacyRouter oracle(rack.topology.get());
  rsf::sim::RandomStream rng(2024, "test.router_oracle");

  // Prices live in a table the price function reads at call time, so
  // an in-place change is visible only through a bump.
  auto prices = std::make_shared<std::vector<double>>();
  const auto draw_price = [&]() -> double {
    const double u = rng.uniform();
    if (u < 0.05) return std::numeric_limits<double>::infinity();
    if (u < 0.15) return std::numeric_limits<double>::quiet_NaN();
    if (u < 0.25) return -rng.uniform(0.0, 500.0);
    // Coarse values make equal-cost ties, which exercise the argmin's
    // scan order.
    return static_cast<double>(rng.uniform_int(0, 8)) * 250.0;
  };
  const auto fresh_prices = [&] {
    prices->assign(plant.link_ids().empty() ? 0 : plant.link_ids().back() + 8, 0.0);
    for (double& v : *prices) v = draw_price();
  };
  const Router::PriceFn price_fn = [prices](phy::LinkId id) {
    return id < prices->size() ? (*prices)[id] : std::numeric_limits<double>::quiet_NaN();
  };
  // Uniform index in [0, n), n > 0.
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto random_link = [&]() -> std::optional<phy::LinkId> {
    const auto ids = plant.link_ids();
    if (ids.empty()) return std::nullopt;
    return ids[pick(ids.size())];
  };

  int checks = 0;
  const auto check = [&](int round, const char* op) {
    ++checks;
    const std::string bad = first_disagreement(router, oracle, nodes);
    ASSERT_TRUE(bad.empty()) << "round " << round << " after " << op << ": " << bad;
  };
  // Submit, compare mid-actuation, run to completion, compare again.
  const auto plp = [&](int round, const char* op, plp::PlpCommand cmd) {
    engine.submit(std::move(cmd));
    check(round, op);
    if (::testing::Test::HasFatalFailure()) return;
    sim.run_until();
    check(round, op);
  };

  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds && !::testing::Test::HasFatalFailure(); ++round) {
    switch (rng.uniform_int(0, 13)) {
      case 0: {
        fresh_prices();
        router.set_price_fn(price_fn);
        oracle.set_price_fn(price_fn);
        check(round, "set_price_fn");
        break;
      }
      case 1:
      case 2: {
        if (prices->empty()) fresh_prices();
        for (int k = 0; k < 6; ++k) (*prices)[pick(prices->size())] = draw_price();
        router.bump_prices();
        oracle.bump_prices();
        check(round, "bump_prices");
        break;
      }
      case 3: {
        router.set_price_fn(nullptr);
        oracle.set_price_fn(nullptr);
        check(round, "clear price fn");
        break;
      }
      case 4: {
        const double ns = static_cast<double>(rng.uniform_int(0, 4)) * 225.0;
        router.set_hop_penalty_ns(ns);
        oracle.set_hop_penalty_ns(ns);
        check(round, "set_hop_penalty_ns");
        break;
      }
      case 5: {
        const phy::LaneRef lane{static_cast<phy::CableId>(pick(plant.cable_count())),
                                static_cast<int>(pick(2))};
        if (rng.bernoulli(0.5)) {
          plant.fail_lane(lane);
          check(round, "fail_lane");
        } else {
          plant.repair_lane(lane);
          check(round, "repair_lane");
        }
        break;
      }
      case 6: {
        const auto id = random_link();
        if (!id) break;
        if (plant.link(*id).reserved_for()) {
          plant.set_reservation(*id, std::nullopt);
        } else {
          plant.set_reservation(*id, static_cast<std::uint64_t>(round + 1));
        }
        check(round, "set_reservation");
        break;
      }
      case 7: {
        const auto id = random_link();
        if (id && plant.link(*id).lane_count() == 2) plp(round, "split", plp::SplitCommand{*id, 1});
        break;
      }
      case 8: {
        // Bundle a parallel pair (the halves of an earlier split).
        const auto ids = plant.link_ids();
        for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
          const auto& a = plant.link(ids[i]);
          const auto& b = plant.link(ids[i + 1]);
          if (a.end_a() == b.end_a() && a.end_b() == b.end_b() && a.segments().size() == 1 &&
              b.segments().size() == 1 && a.segments()[0].cable == b.segments()[0].cable) {
            plp(round, "bundle", plp::BundleCommand{ids[i], ids[i + 1]});
            break;
          }
        }
        break;
      }
      case 9: {
        // Bypass-join two links of one node toward two different peers.
        const auto node = static_cast<NodeId>(pick(nodes));
        const auto& at = rack.topology->links_at(node);
        if (at.size() < 2) break;
        const LinkId a = at[pick(at.size())];
        const LinkId b = at[pick(at.size())];
        if (a == b || plant.link(a).other_end(node) == plant.link(b).other_end(node)) break;
        plp(round, "bypass_join", plp::BypassJoinCommand{a, b});
        break;
      }
      case 10: {
        // Sever a bypassed link at its first joint.
        for (LinkId id : plant.link_ids()) {
          const auto& l = plant.link(id);
          if (l.bypass_joints() == 0) continue;
          const phy::Cable& c0 = plant.cable(l.segments()[0].cable);
          const phy::Cable& c1 = plant.cable(l.segments()[1].cable);
          const NodeId joint = c1.connects(c0.end_a()) ? c0.end_a() : c0.end_b();
          plp(round, "bypass_sever", plp::BypassSeverCommand{id, joint});
          break;
        }
        break;
      }
      case 11: {
        const auto id = random_link();
        if (id) plp(round, "shutdown", plp::ShutdownCommand{*id});
        break;
      }
      case 12: {
        const auto id = random_link();
        if (id) plp(round, "bring_up", plp::BringUpCommand{*id});
        break;
      }
      default: {
        // Asked again with nothing changed: the warm path.
        check(round, "no-op");
        break;
      }
    }
  }
  EXPECT_GE(checks, kRounds);
}

/// Every readiness notice bumps the topology version, so a router
/// queried from inside one must not keep a stale answer once the
/// command completes: PLP clears busy bits before it notifies.
class ReadinessRoutingFixture : public ::testing::Test {
 protected:
  ReadinessRoutingFixture() {
    RackParams p;
    p.width = 4;
    p.height = 4;
    p.lanes_per_cable = 4;  // two dark lanes per cable to provision
    p.lanes_per_link = 2;
    rack = build_grid(&sim, p);
    rack.engine->add_readiness_observer([this](LinkId, bool) {
      ++notices;
      for (NodeId at = 0; at < 16; ++at) {
        for (NodeId dst = 0; dst < 16; ++dst) (void)rack.router->next_hop(at, dst);
      }
    });
  }

  /// The long-lived router answers like one built from scratch.
  void expect_fresh(const char* op) {
    Router cold(rack.topology.get());
    for (NodeId at = 0; at < 16; ++at) {
      for (NodeId dst = 0; dst < 16; ++dst) {
        ASSERT_EQ(rack.router->next_hop(at, dst), cold.next_hop(at, dst))
            << op << ": " << at << " -> " << dst;
      }
    }
  }

  /// Submit, check, complete, check.
  void run(const char* op, plp::PlpCommand cmd) {
    std::optional<plp::PlpResult> result;
    rack.engine->submit(std::move(cmd), [&](const plp::PlpResult& r) { result = r; });
    expect_fresh(op);
    sim.run_until();
    ASSERT_TRUE(result.has_value() && result->ok) << op;
    expect_fresh(op);
    last = *result;
  }

  LinkId link(int ax, int ay, int bx, int by) const {
    return *rack.topology->link_between(rack.node_at(ax, ay), rack.node_at(bx, by));
  }

  Simulator sim;
  Rack rack;
  int notices = 0;
  plp::PlpResult last;
};

TEST_F(ReadinessRoutingFixture, SplitAndBundle) {
  run("split", plp::SplitCommand{link(0, 0, 1, 0), 1});
  run("bundle", plp::BundleCommand{last.created[0], last.created[1]});
  EXPECT_GT(notices, 0);
}

TEST_F(ReadinessRoutingFixture, BypassJoinAndSever) {
  run("bypass_join", plp::BypassJoinCommand{link(0, 0, 1, 0), link(1, 0, 2, 0)});
  run("bypass_sever", plp::BypassSeverCommand{last.created[0], rack.node_at(1, 0)});
  EXPECT_GT(notices, 0);
}

TEST_F(ReadinessRoutingFixture, ShutdownBringUpAndSetFec) {
  const LinkId id = link(1, 1, 2, 1);
  run("shutdown", plp::ShutdownCommand{id});
  run("bring_up", plp::BringUpCommand{id});
  run("set_fec", plp::SetFecCommand{id, phy::FecScheme::kRsKp4});
  EXPECT_GT(notices, 0);
}

TEST_F(ReadinessRoutingFixture, ProvisionAndDecommission) {
  // Park the live link first, so the provisioned one is the only direct
  // hop between its ends and routes actually depend on it.
  const LinkId live = link(2, 2, 3, 2);
  const phy::CableId cable = rack.plant->link(live).segments()[0].cable;
  run("shutdown", plp::ShutdownCommand{live});
  run("provision", plp::ProvisionCommand{cable, {2, 3}, phy::FecScheme::kRsKr4});
  run("decommission", plp::DecommissionCommand{last.created[0]});
  EXPECT_GT(notices, 0);
}

TEST_F(ReadinessRoutingFixture, BringUpOfALiveLinkTakesItOutOfService) {
  // A link that is already up goes busy for the retrain: routes warmed
  // before the command must not keep using it.
  const LinkId id = link(0, 1, 1, 1);
  expect_fresh("warm");
  run("bring_up of a live link", plp::BringUpCommand{id});
}

}  // namespace
}  // namespace rsf::fabric
