#include "fabric/router.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace rsf::fabric {

namespace {
constexpr double kUnreachable = std::numeric_limits<double>::infinity();
/// Reference frame used to convert a link into an unloaded-latency cost.
constexpr auto kRefFrame = rsf::phy::DataSize::bytes(1024);
}  // namespace

Router::Router(const Topology* topo, RoutingPolicy policy) : topo_(topo), policy_(policy) {
  if (topo_ == nullptr) throw std::invalid_argument("Router: null topology");
}

void Router::set_policy(RoutingPolicy p) { policy_ = p; }

void Router::set_price_fn(PriceFn fn) {
  price_fn_ = std::move(fn);
  ++price_generation_;
}

double Router::default_cost(phy::LinkId link) const {
  const phy::LogicalLink& l = topo_->plant().link(link);
  // Unloaded one-way latency of the reference frame, in nanoseconds,
  // plus the switching penalty paid at the hop's receiving node.
  return l.one_way_latency(kRefFrame).ns() + hop_penalty_ns_;
}

double Router::cost(phy::LinkId link) const {
  if (price_fn_) {
    const double p = price_fn_(link);
    // +inf means "priced out" and must exclude the link, not fall back
    // to the default cost. Only NaN (no opinion) falls through.
    if (!std::isnan(p)) return std::max(p, 0.0) + hop_penalty_ns_;
  }
  return default_cost(link);
}

std::size_t Router::row_for(phy::NodeId dst) {
  if (snap_topo_version_ != topo_->version() || snap_price_generation_ != price_generation_) {
    build_arcs();
  }
  if (row_ready_[dst] == 0) build_row(dst);
  return static_cast<std::size_t>(dst) * topo_->node_count();
}

void Router::build_arcs() {
  const std::uint32_t n = topo_->node_count();
  snap_topo_version_ = topo_->version();
  snap_price_generation_ = price_generation_;
  ++snap_builds_;
  arc_begin_.assign(n + 1, 0);
  arcs_.clear();
  for (phy::NodeId node = 0; node < n; ++node) {
    arc_begin_[node] = static_cast<std::uint32_t>(arcs_.size());
    for (phy::LinkId id : topo_->links_at(node)) {
      if (id >= link_price_.size()) link_price_.resize(static_cast<std::size_t>(id) + 1);
      LinkPrice& lp = link_price_[id];
      if (lp.build != snap_builds_) {
        // Reserved links are private circuits, invisible to public
        // routing (their owner takes them directly in the transport).
        lp.build = snap_builds_;
        lp.routable =
            topo_->usable(id) && !topo_->plant().link(id).reserved_for().has_value();
        if (lp.routable) lp.cost = cost(id);
      }
      if (!lp.routable) continue;
      const phy::NodeId other = topo_->plant().link(id).other_end(node);
      if (other >= n) continue;
      arcs_.push_back(Arc{other, id, lp.cost});
    }
  }
  arc_begin_[n] = static_cast<std::uint32_t>(arcs_.size());
  row_ready_.assign(n, 0);
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  if (dist_.size() != cells) {
    dist_.resize(cells);
    next_.resize(cells);
  }
}

void Router::build_row(phy::NodeId dst) {
  const std::uint32_t n = topo_->node_count();
  double* dist = dist_.data() + static_cast<std::size_t>(dst) * n;
  phy::LinkId* next = next_.data() + static_cast<std::size_t>(dst) * n;
  std::fill(dist, dist + n, kUnreachable);

  // Links are undirected and priced once, so the arcs out of a node
  // double as the arcs into it: Dijkstra runs outward from dst.
  using Item = std::pair<double, phy::NodeId>;  // (dist, node)
  heap_.clear();
  dist[dst] = 0.0;
  heap_.emplace_back(0.0, dst);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Item>{});
    const auto [d, node] = heap_.back();
    heap_.pop_back();
    if (d > dist[node]) continue;
    for (std::uint32_t a = arc_begin_[node]; a < arc_begin_[node + 1]; ++a) {
      const Arc& arc = arcs_[a];
      const double nd = d + arc.cost;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        heap_.emplace_back(nd, arc.to);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<Item>{});
      }
    }
  }

  // Every node's next hop: the first arc, in links_at() order, that
  // strictly minimises cost + remaining distance.
  for (phy::NodeId at = 0; at < n; ++at) {
    next[at] = kNextNone;
    if (at == dst || dist[at] == kUnreachable) continue;
    double best = kUnreachable;
    for (std::uint32_t a = arc_begin_[at]; a < arc_begin_[at + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (dist[arc.to] == kUnreachable) continue;
      const double through = arc.cost + dist[arc.to];
      if (through < best) {
        best = through;
        next[at] = arc.link;
      }
    }
  }
  row_ready_[dst] = 1;
}

std::optional<phy::LinkId> Router::next_hop(phy::NodeId at, phy::NodeId dst) {
  if (at == dst) return std::nullopt;
  if (policy_ == RoutingPolicy::kDimensionOrder) {
    return next_hop_dimension_order(at, dst);
  }
  return next_hop_min_cost(at, dst);
}

std::optional<phy::LinkId> Router::next_hop_min_cost(phy::NodeId at, phy::NodeId dst) {
  const std::uint32_t n = topo_->node_count();
  if (dst >= n) return std::nullopt;
  const std::size_t row = row_for(dst);
  if (at >= n) return std::nullopt;
  const phy::LinkId link = next_[row + at];
  return link == kNextNone ? std::nullopt : std::optional(link);
}

namespace {
/// Signed step (-1, 0, +1) that moves `from` toward `to`: the shorter
/// ring direction when the dimension wraps, the plain sign otherwise.
int dim_step(int from, int to, int n, bool wraps) {
  if (from == to) return 0;
  if (!wraps) return to > from ? +1 : -1;
  const int fwd = ((to - from) % n + n) % n;   // steps going +1
  const int back = n - fwd;                    // steps going -1
  return fwd <= back ? +1 : -1;
}
}  // namespace

std::optional<phy::LinkId> Router::next_hop_dimension_order(phy::NodeId at,
                                                            phy::NodeId dst) const {
  const auto ac = topo_->coord(at);
  const auto dc = topo_->coord(dst);
  const int w = topo_->grid_w();
  const int h = topo_->grid_h();
  if (!ac || !dc || w <= 0 || h <= 0) return std::nullopt;

  // X first, then Y. Strict dimension-order: only the wanted
  // direction is acceptable — falling back to the opposite direction
  // would let two adjacent nodes bounce a packet forever. If the
  // wanted link is unusable (mid-reconfiguration) the transport layer
  // waits and retries.
  const int want_dx = dim_step(ac->x, dc->x, w, topo_->wrap_x());
  const int want_dy = want_dx == 0 ? dim_step(ac->y, dc->y, h, topo_->wrap_y()) : 0;
  if (want_dx == 0 && want_dy == 0) return std::nullopt;

  for (phy::LinkId id : topo_->links_at(at)) {
    if (!topo_->usable(id)) continue;
    const phy::LogicalLink& l = topo_->plant().link(id);
    // Dimension-order is the packet-switched baseline: it only uses
    // single-segment (adjacent) links.
    if (l.bypass_joints() != 0) continue;
    if (l.reserved_for().has_value()) continue;
    const auto oc = topo_->coord(l.other_end(at));
    if (!oc) continue;
    const int dx = oc->x - ac->x;
    const int dy = oc->y - ac->y;
    // Normalise wrap moves (e.g. x: 0 -> w-1 is a -1 step).
    const int sx = dx == 0 ? 0 : (std::abs(dx) == 1 ? dx : (dx > 0 ? -1 : +1));
    const int sy = dy == 0 ? 0 : (std::abs(dy) == 1 ? dy : (dy > 0 ? -1 : +1));
    if (want_dx != 0 && sx == want_dx && sy == 0) return id;
    if (want_dx == 0 && want_dy != 0 && sy == want_dy && sx == 0) return id;
  }
  return std::nullopt;
}

std::optional<double> Router::path_cost(phy::NodeId src, phy::NodeId dst) {
  if (src == dst) return 0.0;
  const std::uint32_t n = topo_->node_count();
  if (dst >= n) return std::nullopt;
  const std::size_t row = row_for(dst);
  if (src >= n || dist_[row + src] == kUnreachable) return std::nullopt;
  return dist_[row + src];
}

std::vector<phy::LinkId> Router::path(phy::NodeId src, phy::NodeId dst) {
  std::vector<phy::LinkId> out;
  phy::NodeId at = src;
  // Bounded walk to guard against (impossible under consistent tables)
  // loops.
  for (std::uint32_t i = 0; i <= topo_->node_count() && at != dst; ++i) {
    const auto link = next_hop_min_cost(at, dst);
    if (!link) return {};
    out.push_back(*link);
    at = topo_->plant().link(*link).other_end(at);
  }
  return at == dst ? out : std::vector<phy::LinkId>{};
}

int Router::hop_count(phy::NodeId src, phy::NodeId dst) {
  if (src == dst) return 0;
  const auto p = path(src, dst);
  return p.empty() ? -1 : static_cast<int>(p.size());
}

}  // namespace rsf::fabric
