#include "fabric/interconnect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace rsf::fabric {

using rsf::sim::SimTime;

namespace {
/// Validated before the member initializers dereference it.
telemetry::Registry& checked(telemetry::Registry* registry) {
  if (registry == nullptr) throw std::invalid_argument("Interconnect: null registry");
  return *registry;
}

constexpr SpineLinkId kNone = static_cast<SpineLinkId>(-1);
}  // namespace

Interconnect::Interconnect(rsf::sim::Simulator* sim, telemetry::Registry* registry,
                           std::uint64_t seed)
    : sim_(sim),
      rng_(seed, "spine"),
      counters_(checked(registry).counters("spine")),
      packets_slot_(counters_.slot("spine.packets")),
      bytes_slot_(counters_.slot("spine.bytes")),
      drops_slot_(counters_.slot("spine.packet_drops")),
      claimed_bytes_slot_{&counters_.slot("spine.reserved_bytes"),
                          &counters_.slot("spine.slotted_bytes")},
      transfer_latency_(registry->histogram("spine.transfer_latency")),
      queue_delay_(registry->histogram("spine.queue_delay")) {
  if (sim_ == nullptr) {
    throw std::invalid_argument("Interconnect: null simulator");
  }
}

SpineLinkId Interconnect::add_link(SpineLinkParams params) {
  if (params.a.rack == params.b.rack) {
    throw std::invalid_argument("Interconnect: spine link must join two racks");
  }
  // Written so NaN fails every check: a NaN rate or cost would reach
  // the float-to-integer cast in transmission_time.
  if (!(params.rate.gbps_value() > 0) || !std::isfinite(params.rate.gbps_value())) {
    throw std::invalid_argument("Interconnect: non-positive spine rate");
  }
  if (!(params.cost > 0) || !std::isfinite(params.cost)) {
    throw std::invalid_argument("Interconnect: non-positive spine cost");
  }
  // A negative propagation delay would schedule a packet's arrival
  // before its send; zero is a legal idealised cable.
  if (params.latency < SimTime::zero()) {
    throw std::invalid_argument("Interconnect: negative spine latency");
  }
  // The closed interval: loss_prob == 1 is a blackhole link — a
  // legitimate chaos configuration (the retransmit path above it is
  // bounded by max_retries), not a misconfiguration.
  if (!(params.loss_prob >= 0 && params.loss_prob <= 1)) {
    throw std::invalid_argument("Interconnect: loss_prob outside [0, 1]");
  }
  const auto id = static_cast<SpineLinkId>(links_.size());
  max_rack_ = std::max({max_rack_, params.a.rack, params.b.rack});
  SpineLink l;
  l.params = params;
  l.cost = params.cost;
  l.packets_slot = &counters_.slot("spine.link" + std::to_string(id) + ".packets");
  links_.push_back(std::move(l));
  ++version_;
  counters_.add("spine.links_added");
  return id;
}

const Interconnect::SpineLink& Interconnect::at(SpineLinkId id) const {
  if (id >= links_.size()) throw std::invalid_argument("Interconnect: unknown spine link");
  return links_[id];
}

const SpineLinkParams& Interconnect::link(SpineLinkId id) const { return at(id).params; }

void Interconnect::set_link_up(SpineLinkId id, bool up) {
  static_cast<void>(at(id));  // validate
  // Idempotent: overlapping shared-risk groups legitimately fail the
  // same link twice. A repeated set must not double-count the
  // links_failed/restored transition, invalidate routes, or re-walk
  // the (already emptied) preemption scan.
  if (links_[id].up == up) return;
  links_[id].up = up;
  ++version_;
  counters_.add(up ? "spine.links_restored" : "spine.links_failed");
  if (!up) {
    // A failed link preempts every claim pinned across it: rate shares
    // first, then time shares, each in its table's index order. The
    // share (and any slots) returns to the residual and holders'
    // handles go stale, so their traffic falls back to the shared FIFO
    // of whatever route the transport re-plans.
    static constexpr const char* kPreempted[2] = {"spine.reservation_preemptions",
                                                  "spine.slot_preemptions"};
    for (int t = 0; t < 2; ++t) {
      for (std::uint32_t idx = 0; idx < pools_[t].size(); ++idx) {
        if (!pools_[t].live(idx)) continue;
        const std::vector<SpineLinkId>& route = pools_[t][idx].route;
        if (std::find(route.begin(), route.end(), id) == route.end()) continue;
        teardown(t, idx);
        counters_.add(kPreempted[t]);
      }
    }
  }
}

bool Interconnect::link_up(SpineLinkId id) const { return at(id).up; }

Interconnect::SrlgId Interconnect::add_shared_risk_group(std::vector<SpineLinkId> links) {
  if (links.empty()) {
    throw std::invalid_argument("Interconnect: empty shared-risk group");
  }
  for (const SpineLinkId id : links) static_cast<void>(at(id));  // validate
  const auto gid = static_cast<SrlgId>(srlgs_.size());
  srlgs_.push_back(SharedRiskGroup{std::move(links), true});
  return gid;
}

void Interconnect::set_group_up(SrlgId group, bool up) {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  SharedRiskGroup& g = srlgs_[group];
  if (g.up == up) return;  // idempotent at group granularity
  g.up = up;
  if (!up) {
    // Record which members this cut actually transitioned: links an
    // overlapping group (or a direct set_link_up) already failed are
    // not this group's to restore.
    g.took_down.clear();
    for (const SpineLinkId id : g.links) {
      if (!links_[id].up) continue;
      set_link_up(id, false);
      g.took_down.push_back(id);
    }
    counters_.add("spine.srlg_cuts");
    return;
  }
  // Repair restores exactly the members the cut took down. A cut that
  // took nothing down (every member was already failed by an
  // overlapping group) repairs as a pure no-op — no link transition,
  // no version bump, no route-cache flush — instead of resurrecting
  // links a still-cut group holds; the counter keeps the phantom
  // visible to chaos timelines that emit one.
  if (g.took_down.empty()) {
    counters_.add("spine.srlg_noop_repairs");
    return;
  }
  counters_.add("spine.srlg_repairs");
  for (const SpineLinkId id : g.took_down) set_link_up(id, true);
  g.took_down.clear();
}

bool Interconnect::group_up(SrlgId group) const {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  return srlgs_[group].up;
}

const std::vector<SpineLinkId>& Interconnect::shared_risk_group(SrlgId group) const {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  return srlgs_[group].links;
}

std::vector<SpineLinkId> Interconnect::rack_attachments(std::uint32_t rack) const {
  std::vector<SpineLinkId> out;
  for (SpineLinkId id = 0; id < links_.size(); ++id) {
    const SpineLinkParams& p = links_[id].params;
    if (p.a.rack == rack || p.b.rack == rack) out.push_back(id);
  }
  return out;
}

void Interconnect::set_link_cost(SpineLinkId id, double cost) {
  static_cast<void>(at(id));  // validate
  if (!(cost > 0) || !std::isfinite(cost)) {
    throw std::invalid_argument("Interconnect: non-positive spine cost");
  }
  if (links_[id].cost == cost) return;
  links_[id].cost = cost;
  ++version_;
  counters_.add("spine.reprices");
}

double Interconnect::link_cost(SpineLinkId id) const { return at(id).cost; }

int Interconnect::direction_index(const SpineLink& l, std::uint32_t from_rack) const {
  if (from_rack == l.params.a.rack) return 0;
  if (from_rack == l.params.b.rack) return 1;
  throw std::invalid_argument("Interconnect: rack is not an endpoint of the spine link");
}

const RackNode& Interconnect::far_end(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return direction_index(l, from_rack) == 0 ? l.params.b : l.params.a;
}

std::optional<std::vector<SpineLinkId>> Interconnect::route(std::uint32_t src_rack,
                                                            std::uint32_t dst_rack) const {
  if (cache_version_ != version_) {
    route_cache_.clear();
    cache_version_ = version_;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(src_rack) << 32) | dst_rack;
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    counters_.add("spine.route_cache_hits");
    return it->second;
  }
  counters_.add("spine.route_cache_misses");
  auto r = compute_route(src_rack, dst_rack);
  route_cache_.emplace(key, r);
  return r;
}

std::optional<std::vector<SpineLinkId>> Interconnect::compute_route(
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  return compute_route_avoiding(src_rack, dst_rack, {});
}

std::optional<std::vector<SpineLinkId>> Interconnect::compute_route_avoiding(
    std::uint32_t src_rack, std::uint32_t dst_rack,
    const std::vector<SpineLinkId>& avoid) const {
  if (src_rack == dst_rack) return std::vector<SpineLinkId>{};
  // Racks are few (a fleet is N racks, not N nodes): a fresh search
  // per miss is cheaper than keeping an adjacency index coherent, and
  // route() memoizes the result anyway.
  const std::size_t racks = static_cast<std::size_t>(max_rack_) + 1;
  if (src_rack >= racks || dst_rack >= racks) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(racks, kInf);
  std::vector<int> hops(racks, std::numeric_limits<int>::max());
  std::vector<SpineLinkId> via(racks, kNone);
  // (cost, hops, rack) min-heap: ties resolve toward fewer hops, then
  // toward the expansion from the lowest-id rack (pop order), and
  // relaxation scans link ids ascending, so among equal candidates
  // out of one rack the lowest-id edge wins. Deterministic — every
  // run picks the same route for the same graph and costs.
  using Item = std::tuple<double, int, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  cost[src_rack] = 0;
  hops[src_rack] = 0;
  frontier.emplace(0.0, 0, src_rack);
  while (!frontier.empty()) {
    const auto [c, h, rack] = frontier.top();
    frontier.pop();
    if (c > cost[rack] || (c == cost[rack] && h > hops[rack])) continue;  // stale
    if (rack == dst_rack) break;
    for (SpineLinkId id = 0; id < links_.size(); ++id) {
      const SpineLink& l = links_[id];
      if (!l.up) continue;
      if (std::find(avoid.begin(), avoid.end(), id) != avoid.end()) continue;
      std::uint32_t next;
      if (l.params.a.rack == rack) {
        next = l.params.b.rack;
      } else if (l.params.b.rack == rack) {
        next = l.params.a.rack;
      } else {
        continue;
      }
      const double nc = c + l.cost;
      const int nh = h + 1;
      if (nc < cost[next] || (nc == cost[next] && nh < hops[next])) {
        cost[next] = nc;
        hops[next] = nh;
        via[next] = id;
        frontier.emplace(nc, nh, next);
      }
    }
  }
  if (via[dst_rack] == kNone) return std::nullopt;
  std::vector<SpineLinkId> path;
  for (std::uint32_t rack = dst_rack; rack != src_rack;) {
    const SpineLinkId id = via[rack];
    path.push_back(id);
    const SpineLink& l = links_[id];
    rack = l.params.a.rack == rack ? l.params.b.rack : l.params.a.rack;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// ---------------------------------------------------------------------------
// Claims: rate shares and time shares.
// ---------------------------------------------------------------------------

std::optional<SpineClaimHandle> Interconnect::reserve(std::uint32_t src_rack,
                                                      std::uint32_t dst_rack,
                                                      double bandwidth_fraction) {
  if (!(bandwidth_fraction > 0 && bandwidth_fraction < 1)) {
    throw std::invalid_argument("Interconnect: reservation fraction outside (0, 1)");
  }
  if (src_rack == dst_rack) return std::nullopt;
  if (by_pair_[0].contains(pair_key(src_rack, dst_rack))) return std::nullopt;
  return admit(SpineDiscipline::kRateShare, src_rack, dst_rack, bandwidth_fraction,
               compute_route(src_rack, dst_rack), 0, 0);
}

std::optional<SpineClaimHandle> Interconnect::reserve_slots(
    std::uint32_t src_rack, std::uint32_t dst_rack, int period, int duty,
    const std::vector<SpineLinkId>& avoid) {
  // Shape errors are caller bugs and throw; everything below is a
  // legitimate runtime refusal and returns nullopt.
  if (period < 1 || period > SlotCalendar::kFrameSlots ||
      SlotCalendar::kFrameSlots % period != 0 || duty < 1 || duty > period) {
    throw std::invalid_argument("Interconnect: invalid slot schedule shape");
  }
  if (src_rack == dst_rack) return std::nullopt;
  return admit(SpineDiscipline::kTimeShare, src_rack, dst_rack,
               static_cast<double>(duty) / static_cast<double>(period),
               compute_route_avoiding(src_rack, dst_rack, avoid), period, duty);
}

std::optional<SpineClaimHandle> Interconnect::admit(
    SpineDiscipline discipline, std::uint32_t src_rack, std::uint32_t dst_rack,
    double fraction, const std::optional<std::vector<SpineLinkId>>& route_opt, int period,
    int duty) {
  const int t = static_cast<int>(discipline);
  const bool time_share = discipline == SpineDiscipline::kTimeShare;
  // A time share counts every refusal; a rate share only a headroom
  // miss.
  const auto refuse = [&](bool headroom) -> std::optional<SpineClaimHandle> {
    if (time_share) {
      counters_.add("spine.slot_refusals");
    } else if (headroom) {
      counters_.add("spine.reservations_refused");
    }
    return std::nullopt;
  };
  if (!route_opt || route_opt->empty()) return refuse(false);
  const std::vector<SpineLinkId>& route = *route_opt;
  // Headroom: every crossed direction must keep a positive shared
  // residual after the claim's share leaves it (a duty == period time
  // share therefore always refuses). Checked before any mutation.
  std::vector<int> hop_dir(route.size());
  std::vector<SlotCalendar::LineId> lines(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].claimed[0] + l.dir[d].claimed[1] + fraction >= 1.0) return refuse(true);
    hop_dir[h] = d;
    lines[h] = line_of(route[h], d);
    rack = far_end(route[h], rack).rack;
  }
  SlotMask mask = 0;
  SlotCalendar::Handle booking;
  if (time_share) {
    // Contention: the calendar must find `duty` offsets free on every
    // crossed line simultaneously; a third-party overlap also leaves
    // no partial state behind.
    mask = calendar_.propose(lines, period, duty);
    if (mask == 0) return refuse(false);
    booking = calendar_.book(std::move(lines), mask);
    // Unreachable after a successful propose() (same lines, same mask,
    // no mutation in between), but refuse rather than leak an
    // untracked claim.
    if (!booking.valid()) return refuse(false);
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].claimed[t] += fraction;
  }
  const auto slot = pools_[t].claim();
  Claim& c = pools_[t][slot.index];
  c.src_rack = src_rack;
  c.dst_rack = dst_rack;
  c.fraction = fraction;
  c.route = route;
  c.hop_dir = std::move(hop_dir);
  c.hop_busy_until.assign(route.size(), SimTime::zero());
  c.booking = booking;
  c.mask = mask;
  c.last_activity = sim_->now();
  c.timeout = slot_timeout_;
  by_pair_[t][pair_key(src_rack, dst_rack)].push_back(slot.index);
  ++claim_version_[t];
  counters_.add(time_share ? "spine.slot_reservations" : "spine.reservations");
  if (time_share) arm_expiry(slot.index, slot.generation);
  return SpineClaimHandle{time_share ? slot.index | SpineClaimHandle::kTimeShareBit : slot.index,
                          slot.generation};
}

void Interconnect::teardown(int t, std::uint32_t idx) {
  const Claim& c = pools_[t][idx];
  if (c.booking.valid()) calendar_.release(c.booking);
  for (std::size_t h = 0; h < c.route.size(); ++h) {
    double& claimed = links_[c.route[h]].dir[c.hop_dir[h]].claimed[t];
    claimed -= c.fraction;
    // Float hygiene: a direction whose last claim left must serialize
    // shared traffic at exactly the full residual again.
    if (claimed < 1e-12) claimed = 0.0;
  }
  const auto it = by_pair_[t].find(pair_key(c.src_rack, c.dst_rack));
  std::vector<std::uint32_t>& pair = it->second;
  pair.erase(std::find(pair.begin(), pair.end(), idx));
  if (pair.empty()) by_pair_[t].erase(it);
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle (and disarming a pending expiry event).
  pools_[t].recycle(idx);
  ++claim_version_[t];
}

void Interconnect::release(SpineClaimHandle handle) {
  if (live_claim(handle) == nullptr) return;  // stale: idempotent no-op
  teardown(table_of(handle), index_of(handle));
  counters_.add(handle.discipline() == SpineDiscipline::kTimeShare
                    ? "spine.slot_releases"
                    : "spine.reservation_releases");
}

bool Interconnect::claim_active(SpineClaimHandle handle) const {
  return live_claim(handle) != nullptr;
}

std::vector<SpineClaimHandle> Interconnect::find_claims(std::uint32_t src_rack,
                                                        std::uint32_t dst_rack,
                                                        SpineDiscipline discipline) const {
  const int t = static_cast<int>(discipline);
  std::vector<SpineClaimHandle> out;
  const auto it = by_pair_[t].find(pair_key(src_rack, dst_rack));
  if (it == by_pair_[t].end()) return out;
  out.reserve(it->second.size());
  const std::uint32_t bit = t == 0 ? 0 : SpineClaimHandle::kTimeShareBit;
  for (const std::uint32_t idx : it->second) {
    out.push_back(SpineClaimHandle{idx | bit, pools_[t].generation(idx)});
  }
  return out;
}

const Interconnect::Claim& Interconnect::checked_claim(SpineClaimHandle handle) const {
  const Claim* c = live_claim(handle);
  if (c == nullptr) throw std::invalid_argument("Interconnect: stale claim handle");
  return *c;
}

const std::vector<SpineLinkId>& Interconnect::claim_route(SpineClaimHandle handle) const {
  return checked_claim(handle).route;
}

double Interconnect::claim_fraction(SpineClaimHandle handle) const {
  return checked_claim(handle).fraction;
}

SlotMask Interconnect::claim_mask(SpineClaimHandle handle) const {
  return checked_claim(handle).mask;
}

double Interconnect::claimed_fraction(SpineLinkId id, std::uint32_t from_rack,
                                      SpineDiscipline discipline) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].claimed[static_cast<int>(discipline)];
}

phy::DataRate Interconnect::residual_rate(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  // Same expression occupy() serializes shared traffic at: × (1 − 0.0
  // − 0.0) is exact, so an unclaimed direction advertises the
  // nameplate rate.
  const Direction& dir = l.dir[direction_index(l, from_rack)];
  return l.params.rate * (1.0 - dir.claimed[0] - dir.claimed[1]);
}

void Interconnect::set_slot_duration(SimTime d) {
  if (d <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot duration");
  }
  if (claim_count(SpineDiscipline::kTimeShare) > 0) {
    throw std::logic_error(
        "Interconnect: slot duration cannot change under live schedules");
  }
  slot_duration_ = d;
}

void Interconnect::set_slot_timeout(SimTime timeout) {
  if (timeout <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot timeout");
  }
  slot_timeout_ = timeout;
}

SimTime Interconnect::next_owned_time(SimTime from, SlotMask mask) const {
  const std::int64_t d = slot_duration_.ps();
  const std::int64_t slot = from.ps() / d;
  if ((mask >> (slot % SlotCalendar::kFrameSlots)) & 1) return from;
  // Scan forward to the next owned slot boundary; the mask is non-zero
  // (booked schedules own at least one offset), so k < kFrameSlots.
  for (int k = 1; k < SlotCalendar::kFrameSlots; ++k) {
    if ((mask >> ((slot + k) % SlotCalendar::kFrameSlots)) & 1) {
      return SimTime::picoseconds((slot + k) * d);
    }
  }
  return from;  // unreachable for a live schedule's mask
}

void Interconnect::arm_expiry(std::uint32_t idx, std::uint32_t generation) {
  const Claim& c = pools_[1][idx];
  const SimTime deadline = c.last_activity + c.timeout;
  // Weak: a fleet idling toward drain must not be kept alive by lease
  // housekeeping. The generation capture disarms the event when the
  // claim is released/preempted and the slot recycled before it
  // fires — possibly into a different pair's claim.
  sim_->schedule_weak_at(deadline, [this, idx, generation] {
    const Claim* live = pools_[1].get_live(idx, generation);
    if (live == nullptr) return;
    if (sim_->now() >= live->last_activity + live->timeout) {
      teardown(1, idx);
      counters_.add("spine.slot_expirations");
      return;
    }
    // A send renewed the lease since this was armed; chase the new
    // deadline.
    arm_expiry(idx, generation);
  });
}

// ---------------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------------

SimTime Interconnect::occupy_fifo(SimTime& busy_until, phy::DataRate rate,
                                  SimTime latency, phy::DataSize size) {
  const SimTime now = sim_->now();
  const SimTime start = std::max(now, busy_until);
  const SimTime serialization = phy::transmission_time(size, rate);
  busy_until = start + serialization;
  const SimTime arrival = busy_until + latency;
  bytes_slot_ += static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
  queue_delay_.record(start - now);
  transfer_latency_.record(arrival - now);
  return arrival;
}

SimTime Interconnect::occupy(SpineLink& l, int d, phy::DataSize size) {
  Direction& dir = l.dir[d];
  const SimTime before = dir.busy_until;
  // × (1 − 0.0 − 0.0) is exact in IEEE arithmetic: with nothing
  // reserved and nothing slotted the residual serialization is
  // bit-identical to the full-rate spine.
  const SimTime arrival = occupy_fifo(
      dir.busy_until, l.params.rate * (1.0 - dir.claimed[0] - dir.claimed[1]),
      l.params.latency, size);
  dir.busy_total += dir.busy_until - std::max(sim_->now(), before);
  return arrival;
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineClaimHandle claim, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool claimed = false;
  if (Claim* c = live_claim(claim)) {
    // The packet rides its claim only on hops the claim actually
    // pinned in this direction; anything else (a re-planned detour, a
    // stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < c->route.size(); ++h) {
      if (c->route[h] != id || c->hop_dir[h] != d) continue;
      const int t = table_of(claim);
      if (t == 0) {
        arrival = occupy_fifo(c->hop_busy_until[h], ml.params.rate * c->fraction,
                              ml.params.latency, size);
      } else {
        // Wait for the pair's next owned calendar slot past both now
        // and the claim's own per-hop FIFO, then serialize at the FULL
        // link rate inside it — the calendar's admission rule
        // guarantees nobody else owns these slots, so the hop is
        // collision-free.
        c->hop_busy_until[h] =
            next_owned_time(std::max(sim_->now(), c->hop_busy_until[h]), c->mask);
        arrival = occupy_fifo(c->hop_busy_until[h], ml.params.rate, ml.params.latency, size);
        // Each slotted send renews the inactivity lease.
        c->last_activity = sim_->now();
      }
      claimed = true;
      *claimed_bytes_slot_[t] +=
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
      break;
    }
  }
  if (!claimed) arrival = occupy(ml, d, size);
  return finish_packet(ml, d, arrival, std::move(cb));
}

bool Interconnect::finish_packet(SpineLink& ml, int d, SimTime arrival,
                                 PacketCallback cb) {
  ++ml.dir[d].packets;
  ++packets_slot_;
  ++*ml.packets_slot;
  // Loss is decided at send time but observed at arrival (the far
  // gateway's FEC decoder gives up on the mangled frame there).
  const bool lost = ml.params.loss_prob > 0.0 && rng_.bernoulli(ml.params.loss_prob);
  if (lost) {
    ++ml.dir[d].drops;
    ++drops_slot_;
  }
  if (cb) {
    const auto complete = [cb = std::move(cb), arrival, lost] { cb(arrival, !lost); };
    static_assert(sim::is_inline_event_v<decltype(complete)>,
                  "the spine packet completion must stay on the inline event arm");
    sim_->schedule_at(arrival, complete);
  }
  return true;
}

SimTime Interconnect::busy_time(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].busy_total;
}

SimTime Interconnect::queue_backlog(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  const SimTime until = l.dir[direction_index(l, from_rack)].busy_until;
  return until > sim_->now() ? until - sim_->now() : SimTime::zero();
}

std::uint64_t Interconnect::link_packets(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].packets;
}

std::uint64_t Interconnect::link_drops(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].drops;
}

}  // namespace rsf::fabric
