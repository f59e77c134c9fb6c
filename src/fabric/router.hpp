// rsf::fabric — routing.
//
// The router answers one question per hop: given a packet at `node`
// heading for `dst`, which usable link should it take? Two policies:
//
//  * kMinCost — Dijkstra over per-link costs. The default cost is the
//    link's unloaded one-way latency for a reference frame plus a
//    per-hop switching penalty; the Closed Ring Control overrides it
//    with live price tags (paper §3.2), making routing congestion-,
//    health- and power-aware.
//  * kDimensionOrder — classic X-then-Y over grid/torus coordinates;
//    the static baseline the paper's adaptive fabric is compared to.
//
// Min-cost routing state is one snapshot per (topology version, price
// generation): a CSR arc list of the usable, unreserved links priced
// once each, plus destination rows (distance and next-hop link per
// node) filled lazily from it. Either stamp changing rebuilds the arcs
// and drops every row.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "fabric/topology.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::fabric {

enum class RoutingPolicy { kMinCost, kDimensionOrder };

class Router {
 public:
  /// Cost of crossing a link, in arbitrary but consistent units.
  using PriceFn = std::function<double(phy::LinkId)>;

  Router(const Topology* topo, RoutingPolicy policy = RoutingPolicy::kMinCost);

  [[nodiscard]] RoutingPolicy policy() const { return policy_; }
  void set_policy(RoutingPolicy p);

  /// Install live prices (CRC). Pass nullptr to restore the default
  /// unloaded-latency cost. Bumps the price generation.
  void set_price_fn(PriceFn fn);
  /// Invalidate caches after in-place price changes.
  void bump_prices() { ++price_generation_; }

  /// Next usable link from `at` toward `dst`, or nullopt if
  /// unreachable right now.
  [[nodiscard]] std::optional<phy::LinkId> next_hop(phy::NodeId at, phy::NodeId dst);

  /// Total min-cost from src to dst under current prices (kMinCost
  /// semantics regardless of policy); nullopt if unreachable.
  [[nodiscard]] std::optional<double> path_cost(phy::NodeId src, phy::NodeId dst);

  /// Links of the current min-cost path (empty if unreachable).
  [[nodiscard]] std::vector<phy::LinkId> path(phy::NodeId src, phy::NodeId dst);

  /// Hop count of the current min-cost path; -1 if unreachable.
  [[nodiscard]] int hop_count(phy::NodeId src, phy::NodeId dst);

  /// The default (unloaded latency) cost of a link; exposed so the CRC
  /// can build price tags as latency + penalties.
  [[nodiscard]] double default_cost(phy::LinkId link) const;

  /// Per-hop switching penalty included in default costs (ns units).
  void set_hop_penalty_ns(double ns) {
    hop_penalty_ns_ = ns;
    ++price_generation_;
  }

 private:
  /// One directed hop of the snapshot: from the owning node across
  /// `link` to `to`, at the link's price.
  struct Arc {
    phy::NodeId to;
    phy::LinkId link;
    double cost;
  };

  /// next_[] entry of a node with no usable hop toward the row's
  /// destination. Real LinkIds are dense small integers; this top value
  /// can never be allocated.
  static constexpr phy::LinkId kNextNone = phy::kInvalidLink;

  [[nodiscard]] double cost(phy::LinkId link) const;
  /// Offset of `dst`'s row in dist_/next_, built first if the snapshot
  /// or the row is stale. Callers guarantee dst < node_count().
  std::size_t row_for(phy::NodeId dst);
  void build_arcs();
  void build_row(phy::NodeId dst);

  const Topology* topo_;
  RoutingPolicy policy_;
  PriceFn price_fn_;
  std::uint64_t price_generation_ = 1;
  double hop_penalty_ns_ = 450.0;  // cut-through pipeline, see SwitchParams

  // The snapshot. Storage is allocated by the first build, not by the
  // constructor; node ids are dense and the node count is fixed for a
  // rack's lifetime, so rows are flat n-sized slices.
  std::uint64_t snap_topo_version_ = 0;
  std::uint64_t snap_price_generation_ = 0;
  std::vector<std::uint32_t> arc_begin_;  // node -> first arc; n + 1 entries
  std::vector<Arc> arcs_;                 // per node in links_at() order
  std::vector<std::uint8_t> row_ready_;   // per destination
  std::vector<double> dist_;              // [dst * n + node] min cost node -> dst
  std::vector<phy::LinkId> next_;         // [dst * n + node] argmin hop node -> dst
  // Build scratch, reused: each link's routability and cost, evaluated
  // once per snapshot (stamped with the build count), and the Dijkstra
  // heap.
  struct LinkPrice {
    std::uint64_t build = 0;
    bool routable = false;
    double cost = 0.0;
  };
  std::uint64_t snap_builds_ = 0;
  std::vector<LinkPrice> link_price_;
  std::vector<std::pair<double, phy::NodeId>> heap_;

  [[nodiscard]] std::optional<phy::LinkId> next_hop_min_cost(phy::NodeId at, phy::NodeId dst);
  [[nodiscard]] std::optional<phy::LinkId> next_hop_dimension_order(phy::NodeId at,
                                                                    phy::NodeId dst) const;
};

}  // namespace rsf::fabric
