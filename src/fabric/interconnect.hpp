// rsf::fabric — the inter-rack spine.
//
// An Interconnect models the links *between* racks of a fleet: spine
// cables with a configurable rate and propagation latency, each
// connecting a designated gateway node in one rack to a gateway node
// in another. Since PR 3 the spine is a first-class packet-switched
// layer: the fleet transport streams individual packets through
// send_packet() (per-packet FIFO busy-until serialization, propagation
// latency, and Bernoulli loss sampled from the link's loss_prob), while
// the legacy bulk transfer() remains as the store-and-forward
// comparison baseline.
//
// Rack-level routing is cost-aware shortest path over the rack graph
// (Dijkstra; unit costs degenerate to breadth-first order) skipping
// administratively-down links, with deterministic tie-breaking:
// equal-cost candidates prefer fewer hops, then the expansion from
// the lowest-id rack, then the lowest-id edge out of it — every run
// picks the same route. Routes are memoized per
// (src_rack, dst_rack) against a monotonically increasing spine
// version; add_link, set_link_up and set_link_cost (the controller's
// repricing hook) bump the version, so cached routes are invalidated
// exactly when the graph or its prices change.
//
// Capacity can be claimed on top of the packetized spine. A claim
// pins the current cheapest route for a (rack, rack) pair and takes a
// share of every crossed link-direction (in the direction of travel
// only) under one of two disciplines:
//  - a rate share, reserve(src, dst, fraction): the pair's packets
//    serialize on the claim's private per-hop FIFO at fraction × rate
//    — the fleet-scale circuit;
//  - a time share, reserve_slots(src, dst, period, duty): the pair
//    owns `duty` of every `period` calendar slots and its packets
//    serialize at the full rate inside them — collision-free by the
//    SlotCalendar's admission rule — and the claim lapses after an
//    inactivity lease.
// Either way the shared FIFO serializes the residual, rate × (1 −
// rate-shared − time-shared fraction). Claims survive repricing (the
// route is pinned) but are torn down when any crossed link fails;
// their holders' versioned handles go stale and the traffic falls
// back to the shared residual. With no claims the shared path is
// arithmetically identical to the unclaimed spine.
//
// Metrics land in the owning registry under "spine.*", including
// per-link packet counters ("spine.link3.packets") the fleet
// controller tests assert traffic shifts against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/slot_pool.hpp"
#include "core/small_function.hpp"
#include "fabric/slot_calendar.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"

namespace rsf::fabric {

/// A (rack, node) address in a multi-rack fleet.
struct RackNode {
  std::uint32_t rack = 0;
  phy::NodeId node = phy::kInvalidNode;

  friend bool operator==(const RackNode&, const RackNode&) = default;
};

using SpineLinkId = std::uint32_t;

/// How a claim shares its route's link-directions with everyone else.
enum class SpineDiscipline : std::uint8_t {
  /// A fixed fraction of the rate on a private per-hop FIFO (a carve).
  kRateShare = 0,
  /// Owned calendar slots at the full rate (a slot schedule).
  kTimeShare = 1,
};

/// Versioned handle to a spine claim. Slots are recycled; the
/// generation detects a handle that outlived its claim (released,
/// expired, or preempted by a link failure) — stale handles are
/// safely inert everywhere they are accepted. The id's top bit names
/// the discipline, the rest index that discipline's claim table.
struct SpineClaimHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTimeShareBit = 0x80000000u;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  [[nodiscard]] SpineDiscipline discipline() const {
    return (id & kTimeShareBit) != 0 ? SpineDiscipline::kTimeShare
                                     : SpineDiscipline::kRateShare;
  }
  friend bool operator==(const SpineClaimHandle&, const SpineClaimHandle&) = default;
};

/// Discipline-named spellings of the one handle type, for callers that
/// hold a carve or a slot schedule by name (rsfbench does).
using SpineReservationHandle = SpineClaimHandle;
using SpineScheduleHandle = SpineClaimHandle;

struct SpineLinkParams {
  /// The two gateway endpoints. a.rack != b.rack.
  RackNode a;
  RackNode b;
  phy::DataRate rate = phy::DataRate::gbps(400);
  /// One-way propagation between the racks (spine cables are long).
  rsf::sim::SimTime latency = rsf::sim::SimTime::microseconds(1);
  /// Per-packet loss probability on this hop (uncorrectable errors at
  /// fleet scale). Sampled by send_packet(); 0 keeps runs loss-free.
  double loss_prob = 0.0;
  /// Initial routing cost (> 0). The FleetController reprices live.
  double cost = 1.0;
};

class Interconnect {
 public:
  /// cb(arrival): the transfer's last bit reaches the far gateway.
  /// SmallFunction (not std::function) keeps the scheduled completion
  /// continuation trivially copyable, so it rides the Simulator's
  /// inline event arm — per-packet spine sends never allocate.
  using DeliveryCallback = core::SmallFunction<void(rsf::sim::SimTime arrival)>;
  /// cb(arrival, delivered): the packet's last bit reaches the far
  /// gateway (delivered == false when the hop lost it — the sender
  /// owns retransmission).
  using PacketCallback =
      core::SmallFunction<void(rsf::sim::SimTime arrival, bool delivered)>;

  /// Metrics go to `registry` under "spine.*" (never null; the
  /// FleetRuntime hands the fleet registry in). `seed` feeds the loss
  /// sampler; equal seeds reproduce loss patterns bit-for-bit.
  Interconnect(rsf::sim::Simulator* sim, telemetry::Registry* registry,
               std::uint64_t seed = 1);

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  SpineLinkId add_link(SpineLinkParams params);
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const SpineLinkParams& link(SpineLinkId id) const;

  /// Administrative state: a down spine link carries nothing and is
  /// invisible to route(). Opens the spine-failure scenario family.
  /// Idempotent: repeating the current state is a no-op (no counter
  /// transition, no version bump, no preemption walk) — overlapping
  /// shared-risk groups cut the same link twice routinely.
  void set_link_up(SpineLinkId id, bool up);
  [[nodiscard]] bool link_up(SpineLinkId id) const;

  // --- shared-risk groups (correlated failure) ---

  using SrlgId = std::uint32_t;

  /// Register a shared-risk link group: links that fail together (a
  /// conduit, a power domain, a trench). One set_group_up(id, false)
  /// cuts every member; membership may overlap between groups (link
  /// administrative state is last-writer-wins, which set_link_up's
  /// idempotence keeps counter-exact). Links must already exist; a
  /// group must not be empty.
  SrlgId add_shared_risk_group(std::vector<SpineLinkId> links);

  /// Cut (up == false) or repair (up == true) every member link.
  /// Idempotent at group granularity: repeating the group's current
  /// state is a no-op and the spine.srlg_cuts / spine.srlg_repairs
  /// counters advance once per actual transition.
  void set_group_up(SrlgId group, bool up);
  [[nodiscard]] bool group_up(SrlgId group) const;
  [[nodiscard]] const std::vector<SpineLinkId>& shared_risk_group(SrlgId group) const;
  [[nodiscard]] std::size_t shared_risk_group_count() const { return srlgs_.size(); }

  /// Every spine link with an endpoint gateway in `rack`, ascending by
  /// id — the rack's spine attachments. Failing all of them is a
  /// rack-wide brownout (the chaos harness's second correlated-failure
  /// primitive).
  [[nodiscard]] std::vector<SpineLinkId> rack_attachments(std::uint32_t rack) const;

  /// Live routing cost of `id`. Starts at params.cost; repriced by the
  /// FleetController. Setting a changed cost bumps the spine version.
  void set_link_cost(SpineLinkId id, double cost);
  [[nodiscard]] double link_cost(SpineLinkId id) const;

  /// Monotonic version of the rack graph + its prices. Bumped by
  /// add_link, by set_link_up, and by set_link_cost when the cost
  /// actually changes; the route cache keys on it.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The far endpoint of `id` as seen from `from_rack`.
  [[nodiscard]] const RackNode& far_end(SpineLinkId id, std::uint32_t from_rack) const;

  /// Cheapest up-link path src_rack -> dst_rack over the rack graph
  /// (cost-weighted; ties prefer fewer hops, then the lowest-id rack's
  /// expansion, then its lowest-id edge, so routes are deterministic).
  /// nullopt when unreachable; empty
  /// when src == dst. Memoized per (src, dst) against version() —
  /// the per-packet hot path resolves routes through here.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> route(std::uint32_t src_rack,
                                                              std::uint32_t dst_rack) const;

  /// The uncached computation behind route(); exposed so tests can
  /// assert the cache hit path returns exactly what a fresh search
  /// would.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> compute_route(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// compute_route with an avoid-set: links in `avoid` are skipped as
  /// if administratively down. The multi-path schedule split uses it
  /// to find a second route link-disjoint from the first.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> compute_route_avoiding(
      std::uint32_t src_rack, std::uint32_t dst_rack,
      const std::vector<SpineLinkId>& avoid) const;

  // --- claims: rate shares (carves) and time shares (slot schedules) ---

  /// Rate share: carve `fraction` (0 < fraction < 1) of per-direction
  /// capacity for the pair (src_rack, dst_rack) along the current
  /// cheapest route. Fails (nullopt) when src == dst, no route exists,
  /// the pair already holds a rate share, or any crossed direction
  /// lacks the headroom ("spine.reservations_refused" counts only
  /// that last case).
  std::optional<SpineClaimHandle> reserve(std::uint32_t src_rack, std::uint32_t dst_rack,
                                          double bandwidth_fraction);

  /// Time share: book `duty` owned offsets per `period` slots (period
  /// divides SlotCalendar::kFrameSlots) on every link-direction of the
  /// cheapest current route, or the cheapest avoiding `avoid`'s links
  /// when given (the multi-path split). A pair may hold several.
  /// Admission is all-or-nothing: no route, no headroom, or any
  /// third-party calendar overlap refuses the whole booking (nullopt,
  /// "spine.slot_refusals") and leaves no partial claim. The claim
  /// expires on its own after slot_timeout() without a slotted send.
  std::optional<SpineClaimHandle> reserve_slots(std::uint32_t src_rack,
                                                std::uint32_t dst_rack, int period, int duty,
                                                const std::vector<SpineLinkId>& avoid = {});

  /// Tear the claim down and return its share (and slots) to the
  /// shared residual. Stale handles are a no-op (idempotent; races
  /// with expiry and failure-driven preemption are benign).
  void release(SpineClaimHandle handle);

  /// True while `handle` names a live claim (same generation).
  [[nodiscard]] bool claim_active(SpineClaimHandle handle) const;

  /// The live claims of (src_rack, dst_rack) under `discipline`, in
  /// booking order (at most one rate share per pair).
  [[nodiscard]] std::vector<SpineClaimHandle> find_claims(std::uint32_t src_rack,
                                                          std::uint32_t dst_rack,
                                                          SpineDiscipline discipline) const;

  /// A live claim's pinned route (crossing order), capacity share
  /// (the carved fraction, or duty / period) and owned slot set (0 for
  /// a rate share). Throw on stale handles — check claim_active first.
  [[nodiscard]] const std::vector<SpineLinkId>& claim_route(SpineClaimHandle handle) const;
  [[nodiscard]] double claim_fraction(SpineClaimHandle handle) const;
  [[nodiscard]] SlotMask claim_mask(SpineClaimHandle handle) const;

  /// Live claims under `discipline` right now.
  [[nodiscard]] std::size_t claim_count(SpineDiscipline discipline) const {
    const auto& pool = pools_[static_cast<int>(discipline)];
    return pool.size() - pool.free_count();
  }

  /// Monotonic version of one discipline's claim table: bumped by
  /// admission, release, expiry and failure-driven preemption.
  /// Transports poll it to adopt or drop a pair's claims without a
  /// per-packet lookup; it stays 0 while the discipline is unused.
  [[nodiscard]] std::uint64_t claim_version(SpineDiscipline discipline) const {
    return claim_version_[static_cast<int>(discipline)];
  }

  /// Fraction of direction (`id`, leaving `from_rack`) currently held
  /// by claims under `discipline`.
  [[nodiscard]] double claimed_fraction(SpineLinkId id, std::uint32_t from_rack,
                                        SpineDiscipline discipline) const;

  /// The rate shared (unclaimed) traffic actually sees on direction
  /// (`id`, leaving `from_rack`): rate × (1 − rate-shared − time-shared
  /// fraction). This is what the FleetController prices against; with
  /// nothing claimed it is exactly the nameplate rate.
  [[nodiscard]] phy::DataRate residual_rate(SpineLinkId id, std::uint32_t from_rack) const;

  /// Wall-clock length of one calendar slot; slot s of the repeating
  /// frame covers [s·d, (s+1)·d) modulo kFrameSlots·d. Changing it
  /// mid-run is refused while any time share is live (booked slot sets
  /// would silently shift under their owners).
  void set_slot_duration(rsf::sim::SimTime d);
  [[nodiscard]] rsf::sim::SimTime slot_duration() const { return slot_duration_; }

  /// Inactivity window after which a time share self-expires: a pair
  /// that stopped sending returns its slots without controller help
  /// (each slotted send renews the lease). Applies to claims booked
  /// after the call.
  void set_slot_timeout(rsf::sim::SimTime timeout);
  [[nodiscard]] rsf::sim::SimTime slot_timeout() const { return slot_timeout_; }

  // --- per-pair demand (the controller's promotion input) ---

  /// Stable reference to the pair's cumulative offered cross-rack
  /// load (created at zero). The unit is byte·hops — payload bytes
  /// weighted by the spine hops the route crosses, the pair's spine
  /// resource footprint — so a long-haul pair is not under-ranked
  /// against short-haul bursts whose small RTT lets them dominate
  /// shared FIFOs. std::map nodes never move, so the FleetRuntime
  /// resolves the slot once per route (re)resolution and bumps it per
  /// packet with no map lookup (the CounterSet::slot idiom); the
  /// FleetController diffs the totals between epochs to find
  /// persistently hot pairs.
  [[nodiscard]] std::uint64_t& pair_demand_slot(std::uint32_t src_rack,
                                                std::uint32_t dst_rack) {
    return pair_demand_[pair_key(src_rack, dst_rack)];
  }
  /// Cumulative demand per pair in byte·hops, keyed (src << 32) | dst.
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pair_demand() const {
    return pair_demand_;
  }

  // --- packet / bulk transport ---

  /// Occupy `id` in the direction leaving `from_rack` for one packet
  /// of `size` bytes: FIFO serialization at the link rate, then
  /// propagation; loss sampled from the link's loss_prob. `cb` fires
  /// at arrival either way. Returns false (no callback) when the link
  /// is down.
  ///
  /// When `claim` is live and its pinned route crosses `id` leaving
  /// `from_rack`, the packet rides the claim: a rate share serializes
  /// it on the claim's private per-hop FIFO at the carved rate; a time
  /// share waits for the pair's next owned slot on that hop, serializes
  /// at the full rate inside it, and renews the claim's lease. A stale
  /// or foreign handle falls back to the shared residual — preempted
  /// or expired traffic degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineClaimHandle claim, PacketCallback cb);
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   PacketCallback cb) {
    return send_packet(id, from_rack, size, SpineClaimHandle{}, std::move(cb));
  }

  /// Bulk store-and-forward transfer: the whole payload occupies the
  /// direction for its serialization time. Comparison baseline for
  /// the packetized path (FleetConfig::transport selects). `cb` fires
  /// at arrival. Returns false (no callback) when the link is down.
  bool transfer(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                DeliveryCallback cb);

  /// Cumulative time direction (`id`, leaving `from_rack`) has spent
  /// serializing — the spine utilisation input the FleetController
  /// diffs between epochs.
  [[nodiscard]] rsf::sim::SimTime busy_time(SpineLinkId id, std::uint32_t from_rack) const;
  /// How far ahead of now the direction's FIFO is booked — the queue
  /// depth (in time) the FleetController prices against.
  [[nodiscard]] rsf::sim::SimTime queue_backlog(SpineLinkId id,
                                                std::uint32_t from_rack) const;
  /// Packets sent on direction (`id`, leaving `from_rack`).
  [[nodiscard]] std::uint64_t link_packets(SpineLinkId id, std::uint32_t from_rack) const;
  /// Packets lost on direction (`id`, leaving `from_rack`).
  [[nodiscard]] std::uint64_t link_drops(SpineLinkId id, std::uint32_t from_rack) const;

  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }

 private:
  struct Direction {
    rsf::sim::SimTime busy_until = rsf::sim::SimTime::zero();
    rsf::sim::SimTime busy_total = rsf::sim::SimTime::zero();
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    /// Capacity held by claims crossing this direction, per
    /// discipline. The shared FIFO serializes at rate × (1 − [rate] −
    /// [time]); 0 keeps the arithmetic identical to the unclaimed spine.
    double claimed[2] = {0.0, 0.0};
  };
  /// One pair's claim. Liveness and the stale-handle generation live
  /// in the discipline's SlotPool.
  struct Claim {
    std::uint32_t src_rack = 0;
    std::uint32_t dst_rack = 0;
    /// The capacity share subtracted from every crossed direction's
    /// shared residual: the carved fraction, or duty / period.
    double fraction = 0.0;
    /// Pinned route and, per hop, the direction index on that link
    /// and the claim's private FIFO horizon (successive packets of the
    /// pair queue behind each other, never against third parties).
    std::vector<SpineLinkId> route;
    std::vector<int> hop_dir;
    std::vector<rsf::sim::SimTime> hop_busy_until;
    // --- time shares only ---
    SlotCalendar::Handle booking;
    SlotMask mask = 0;
    /// Inactivity lease: bumped by every slotted send; the weak
    /// expiry event tears the claim down when it goes stale.
    rsf::sim::SimTime last_activity = rsf::sim::SimTime::zero();
    rsf::sim::SimTime timeout = rsf::sim::SimTime::zero();
  };
  /// A shared-risk group's membership and its own up/down state. The
  /// group state tracks set_group_up calls only — individual
  /// set_link_up calls on members do not move it (the group models the
  /// shared conduit, not the union of its cables' states).
  struct SharedRiskGroup {
    std::vector<SpineLinkId> links;
    bool up = true;
    /// Members this group's cut actually transitioned down (links an
    /// overlapping group or a direct set_link_up had already failed
    /// are not claimed). Repair restores exactly this set; a repair
    /// whose cut took nothing down is a pure no-op (counted as
    /// "spine.srlg_noop_repairs") instead of a phantom version bump
    /// that would resurrect links another group still holds down.
    std::vector<SpineLinkId> took_down;
  };
  struct SpineLink {
    SpineLinkParams params;
    bool up = true;
    double cost = 1.0;
    /// Cached registry slot for "spine.link<N>.packets" so the
    /// per-packet hot path never builds strings or walks the map.
    std::uint64_t* packets_slot = nullptr;
    Direction dir[2];  // [0]: a->b, [1]: b->a
  };

  [[nodiscard]] const SpineLink& at(SpineLinkId id) const;
  /// 0 when leaving params.a.rack, 1 when leaving params.b.rack.
  [[nodiscard]] int direction_index(const SpineLink& l, std::uint32_t from_rack) const;
  /// Book one serialization on the FIFO behind `busy_until` at `rate`;
  /// returns the arrival time and maintains the shared byte/latency
  /// instruments.
  rsf::sim::SimTime occupy_fifo(rsf::sim::SimTime& busy_until, phy::DataRate rate,
                                rsf::sim::SimTime latency, phy::DataSize size);
  /// Book one serialization on the shared residual FIFO of (l, d).
  rsf::sim::SimTime occupy(SpineLink& l, int d, phy::DataSize size);
  /// The send_packet tail: per-direction and per-link packet counters,
  /// the loss draw, and the completion event. The ordering (counters,
  /// then the RNG draw, then the scheduled callback) is part of the
  /// determinism contract.
  bool finish_packet(SpineLink& ml, int d, rsf::sim::SimTime arrival, PacketCallback cb);

  /// The admission both disciplines share: headroom on every crossed
  /// direction (and, for a time share, the calendar's `duty` of
  /// `period` slots), then the claim itself. Refusals leave no
  /// partial state behind.
  std::optional<SpineClaimHandle> admit(SpineDiscipline discipline, std::uint32_t src_rack,
                                        std::uint32_t dst_rack, double fraction,
                                        const std::optional<std::vector<SpineLinkId>>& route,
                                        int period, int duty);
  /// The claim table and index a handle names. kInvalidId indexes
  /// past any table, so stale, foreign and never-valid handles all
  /// miss in live_claim.
  [[nodiscard]] static int table_of(SpineClaimHandle h) {
    return static_cast<int>(h.discipline());
  }
  [[nodiscard]] static std::uint32_t index_of(SpineClaimHandle h) {
    return h.id & ~SpineClaimHandle::kTimeShareBit;
  }
  [[nodiscard]] Claim* live_claim(SpineClaimHandle h) {
    return pools_[table_of(h)].get_live(index_of(h), h.generation);
  }
  [[nodiscard]] const Claim* live_claim(SpineClaimHandle h) const {
    return pools_[table_of(h)].get_live(index_of(h), h.generation);
  }
  [[nodiscard]] const Claim& checked_claim(SpineClaimHandle h) const;
  /// Tear one claim down and return its share (shared by release(),
  /// expiry and failure-driven preemption).
  void teardown(int discipline, std::uint32_t idx);
  /// Arm (or re-arm) a time share's weak inactivity-expiry event.
  void arm_expiry(std::uint32_t idx, std::uint32_t generation);
  /// The earliest instant >= `from` inside a slot `mask` owns.
  [[nodiscard]] rsf::sim::SimTime next_owned_time(rsf::sim::SimTime from,
                                                  SlotMask mask) const;
  /// The calendar line of (`link`, direction d).
  [[nodiscard]] static SlotCalendar::LineId line_of(SpineLinkId link, int d) {
    return (static_cast<SlotCalendar::LineId>(link) << 1) | static_cast<unsigned>(d);
  }
  [[nodiscard]] static std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  rsf::sim::Simulator* sim_;
  std::vector<SpineLink> links_;
  std::vector<SharedRiskGroup> srlgs_;
  std::uint32_t max_rack_ = 0;
  std::uint64_t version_ = 1;
  rsf::sim::RandomStream rng_;
  // Route memoization: cleared lazily when version_ moves past the
  // stamp, so set_link_up / repricing cost one O(1) bump, not a walk.
  mutable std::uint64_t cache_version_ = 0;
  mutable std::map<std::uint64_t, std::optional<std::vector<SpineLinkId>>> route_cache_;
  // Claim tables, indexed by discipline: a SlotPool whose per-slot
  // generation makes recycled handles detectably stale, the per-pair
  // index in booking order, and the table's version.
  core::SlotPool<Claim> pools_[2];
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_pair_[2];
  std::uint64_t claim_version_[2] = {0, 0};
  SlotCalendar calendar_;
  rsf::sim::SimTime slot_duration_ = rsf::sim::SimTime::microseconds(1);
  rsf::sim::SimTime slot_timeout_ = rsf::sim::SimTime::microseconds(150);
  std::map<std::uint64_t, std::uint64_t> pair_demand_;
  telemetry::CounterSet& counters_;
  // Hot-path counter slots (stable references into counters_).
  std::uint64_t& packets_slot_;
  std::uint64_t& bytes_slot_;
  std::uint64_t& drops_slot_;
  /// "spine.reserved_bytes" and "spine.slotted_bytes": bytes that rode
  /// a claim, per discipline.
  std::uint64_t* claimed_bytes_slot_[2];
  telemetry::Histogram& transfer_latency_;
  telemetry::Histogram& queue_delay_;
};

}  // namespace rsf::fabric
