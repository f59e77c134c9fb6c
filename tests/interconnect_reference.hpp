// The reference Interconnect for interconnect_oracle_test.cpp.
//
// This is the spine as it stood before the rate-share carve and the
// time-share slot schedule were merged into one claim record: its
// header and source, verbatim apart from the namespace
// (rsf::fabric::reference). The oracle drives it side by side with
// fabric::Interconnect and requires bit-identical observations, so
// this copy must not change when the class under test does.
//
// Header-only by necessity (CMake builds one binary per tests/*.cpp)
// and included by exactly one translation unit: the out-of-line
// member definitions below are not `inline`.
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

namespace rsf::fabric::reference {

/// A (rack, node) address in a multi-rack fleet.
struct RackNode {
  std::uint32_t rack = 0;
  phy::NodeId node = phy::kInvalidNode;

  friend bool operator==(const RackNode&, const RackNode&) = default;
};

using SpineLinkId = std::uint32_t;

/// Versioned handle to a spine circuit reservation. Slots are
/// recycled; the generation detects a handle that outlived its
/// reservation (released, or preempted by a link failure) — stale
/// handles are safely inert everywhere they are accepted.
struct SpineReservationHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  friend bool operator==(const SpineReservationHandle&,
                         const SpineReservationHandle&) = default;
};

/// Versioned handle to a spine slot schedule (the TDMA regime's
/// counterpart of SpineReservationHandle): same recycled-slot +
/// generation staleness contract — released, expired, or preempted
/// schedules leave holders with an inert handle.
struct SpineScheduleHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  friend bool operator==(const SpineScheduleHandle&,
                         const SpineScheduleHandle&) = default;
};

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

  // --- circuit reservations ---

  /// Carve `fraction` (0 < fraction < 1) of per-direction capacity for
  /// the pair (src_rack, dst_rack) along the current cheapest route,
  /// which is pinned for the reservation's lifetime. Fails (nullopt)
  /// when src == dst, no route exists, the pair already holds a
  /// reservation, or any crossed direction lacks the headroom (the
  /// total carved fraction per direction must stay below 1). Bumps the
  /// reservation version so transports re-check their pair bindings.
  std::optional<SpineReservationHandle> reserve(std::uint32_t src_rack,
                                                std::uint32_t dst_rack,
                                                double bandwidth_fraction);

  /// Tear the reservation down and return its capacity to the shared
  /// residual. Stale handles are a no-op (release is idempotent and
  /// races with failure-driven preemption are benign).
  void release(SpineReservationHandle handle);

  /// True while `handle` names a live reservation (same generation).
  [[nodiscard]] bool reservation_active(SpineReservationHandle handle) const;

  /// The live reservation for (src_rack, dst_rack), if any.
  [[nodiscard]] std::optional<SpineReservationHandle> find_reservation(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// The pinned route of a live reservation (crossing order).
  /// Throws on stale handles — check reservation_active first.
  [[nodiscard]] const std::vector<SpineLinkId>& reservation_route(
      SpineReservationHandle handle) const;
  [[nodiscard]] double reservation_fraction(SpineReservationHandle handle) const;

  /// Live reservations right now.
  [[nodiscard]] std::size_t reservation_count() const {
    return reservations_.size() - reservations_.free_count();
  }

  /// Monotonic version of the reservation table: bumped by reserve(),
  /// release(), and failure-driven preemption. Transports poll it to
  /// adopt or drop a pair's reservation without a per-packet lookup.
  /// Stays 0 while reservations are never used.
  [[nodiscard]] std::uint64_t reservation_version() const { return reservation_version_; }

  /// Fraction of direction (`id`, leaving `from_rack`) currently
  /// carved out by reservations.
  [[nodiscard]] double reserved_fraction(SpineLinkId id, std::uint32_t from_rack) const;

  /// The rate shared (unreserved) traffic actually sees on direction
  /// (`id`, leaving `from_rack`): the nameplate rate minus every
  /// carve crossing it — rate × (1 − reserved_fraction). This is what
  /// the FleetController prices against; with nothing carved it is
  /// exactly the nameplate rate.
  [[nodiscard]] phy::DataRate residual_rate(SpineLinkId id, std::uint32_t from_rack) const;

  // --- slot schedules (the TDMA regime) ---

  /// Wall-clock length of one calendar slot; slot s of the repeating
  /// frame covers [s·d, (s+1)·d) modulo kFrameSlots·d. Changing it
  /// mid-run is refused while any schedule is live (booked slot sets
  /// would silently shift under their owners).
  void set_slot_duration(rsf::sim::SimTime d);
  [[nodiscard]] rsf::sim::SimTime slot_duration() const { return slot_duration_; }

  /// Inactivity window after which a schedule self-expires: a pair
  /// that stopped sending returns its slots without controller help
  /// (each slotted send renews the lease). Applies to schedules booked
  /// after the call.
  void set_slot_timeout(rsf::sim::SimTime timeout);
  [[nodiscard]] rsf::sim::SimTime slot_timeout() const { return slot_timeout_; }

  /// Book a periodic slot schedule for (src_rack, dst_rack): `duty`
  /// owned offsets per `period` slots (period divides
  /// SlotCalendar::kFrameSlots) on every link-direction of the pinned
  /// route — the cheapest current route, or the cheapest avoiding
  /// `avoid`'s links when given (the multi-path split). Admission is
  /// all-or-nothing through the SlotCalendar: any third-party overlap
  /// on any crossed direction refuses the whole booking (nullopt,
  /// "spine.slot_refusals") and leaves no partial claim. A booked
  /// schedule subtracts duty/period from every crossed direction's
  /// shared residual and expires on its own after slot_timeout() of
  /// inactivity. Bumps the schedule version.
  std::optional<SpineScheduleHandle> reserve_slots(
      std::uint32_t src_rack, std::uint32_t dst_rack, int period, int duty,
      const std::vector<SpineLinkId>& avoid = {});

  /// Tear the schedule down and return its slots and residual
  /// fraction. Stale handles are a no-op (idempotent; races with
  /// expiry and failure-driven preemption are benign).
  void release_slots(SpineScheduleHandle handle);

  /// True while `handle` names a live schedule (same generation).
  [[nodiscard]] bool schedule_active(SpineScheduleHandle handle) const;

  /// Every live schedule of (src_rack, dst_rack), booking order — one
  /// pair may hold several (the multi-path split books one per route).
  [[nodiscard]] std::vector<SpineScheduleHandle> find_schedules(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// The pinned route / owned slot set / capacity share of a live
  /// schedule. Throw on stale handles — check schedule_active first.
  [[nodiscard]] const std::vector<SpineLinkId>& schedule_route(
      SpineScheduleHandle handle) const;
  [[nodiscard]] SlotMask schedule_mask(SpineScheduleHandle handle) const;
  [[nodiscard]] double schedule_fraction(SpineScheduleHandle handle) const;

  /// Live schedules right now.
  [[nodiscard]] std::size_t schedule_count() const {
    return schedules_.size() - schedules_.free_count();
  }

  /// Monotonic version of the schedule table: bumped by
  /// reserve_slots(), release_slots(), expiry, and failure-driven
  /// preemption. Transports poll it to adopt or drop a pair's
  /// schedules without a per-packet lookup. Stays 0 while slot
  /// schedules are never used.
  [[nodiscard]] std::uint64_t schedule_version() const { return schedule_version_; }

  /// Fraction of direction (`id`, leaving `from_rack`) currently owned
  /// by slot schedules (the sum of their duty/period shares).
  [[nodiscard]] double slotted_fraction(SpineLinkId id, std::uint32_t from_rack) const;

  /// The slot-admission ledger (tests assert occupancy against it).
  [[nodiscard]] const SlotCalendar& slot_calendar() const { return calendar_; }

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
  /// When `reservation` is live and its pinned route crosses `id`
  /// leaving `from_rack`, the packet serializes on the reservation's
  /// private per-hop FIFO at the carved rate instead of the shared
  /// residual FIFO. A stale or foreign handle falls back to the
  /// shared residual — preempted traffic degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineReservationHandle reservation, PacketCallback cb);
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   PacketCallback cb) {
    return send_packet(id, from_rack, size, SpineReservationHandle{}, std::move(cb));
  }

  /// Slotted variant: when `schedule` is live and its pinned route
  /// crosses `id` leaving `from_rack`, the packet waits for the
  /// pair's next owned calendar slot on that hop and serializes at the
  /// full link rate inside it — collision-free by the calendar's
  /// admission rule — and the send renews the schedule's inactivity
  /// lease. A stale or foreign handle falls back to the shared
  /// residual: expired or preempted traffic degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineScheduleHandle schedule, PacketCallback cb);

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
    /// Capacity carved out by reservations crossing this direction.
    /// The shared FIFO serializes at rate × (1 − reserved_fraction −
    /// slotted_fraction); 0 keeps the arithmetic identical to the
    /// unreserved spine.
    double reserved_fraction = 0.0;
    /// Capacity owned by slot schedules crossing this direction (the
    /// sum of their duty/period shares). Same residual arithmetic as
    /// reserved_fraction; 0 while slot schedules are unused.
    double slotted_fraction = 0.0;
  };
  struct Reservation {
    std::uint32_t src_rack = 0;
    std::uint32_t dst_rack = 0;
    double fraction = 0.0;
    /// Pinned route and, per hop, the direction index on that link
    /// and the private FIFO's booking horizon. Liveness and the
    /// stale-handle generation live in the SlotPool.
    std::vector<SpineLinkId> route;
    std::vector<int> hop_dir;
    std::vector<rsf::sim::SimTime> hop_busy_until;
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
  /// The shared send_packet tail: per-direction and per-link packet
  /// counters, the loss draw, and the completion event. The ordering
  /// (counters, then the RNG draw, then the scheduled callback) is
  /// part of the determinism contract — every overload shares it.
  bool finish_packet(SpineLink& ml, int d, rsf::sim::SimTime arrival, PacketCallback cb);
  [[nodiscard]] const Reservation* live_reservation(SpineReservationHandle h) const {
    // SpineReservationHandle::kInvalidId is SlotPool's invalid index,
    // so stale, foreign and never-valid handles all fail is_live.
    return reservations_.get_live(h.id, h.generation);
  }
  /// Tear one reservation down and return its carve (shared by
  /// release() and failure-driven preemption).
  void teardown_reservation(std::uint32_t idx);

  /// One pair's periodic slot schedule: a SlotCalendar booking plus
  /// the pinned route, the per-hop slotted FIFO horizon, and the
  /// inactivity lease. Liveness and the stale-handle generation live
  /// in the SlotPool.
  struct SlotSchedule {
    std::uint32_t src_rack = 0;
    std::uint32_t dst_rack = 0;
    /// duty / period — the capacity share subtracted from every
    /// crossed direction's shared residual while the schedule lives.
    double fraction = 0.0;
    SlotCalendar::Handle booking;
    SlotMask mask = 0;
    std::vector<SpineLinkId> route;
    std::vector<int> hop_dir;
    /// Per-hop booking horizon of the schedule's private slotted
    /// FIFO (successive packets of the pair queue behind each other
    /// inside their own slots, never against third parties).
    std::vector<rsf::sim::SimTime> hop_busy_until;
    /// Inactivity lease: bumped by every slotted send; the weak
    /// expiry event tears the schedule down when it goes stale.
    rsf::sim::SimTime last_activity = rsf::sim::SimTime::zero();
    rsf::sim::SimTime timeout = rsf::sim::SimTime::zero();
  };

  [[nodiscard]] const SlotSchedule* live_schedule(SpineScheduleHandle h) const {
    return schedules_.get_live(h.id, h.generation);
  }
  /// Tear one schedule down and return its slots + residual share
  /// (shared by release_slots(), expiry, and failure preemption).
  void teardown_schedule(std::uint32_t idx);
  /// Arm (or re-arm) the schedule's weak inactivity-expiry event.
  void arm_schedule_expiry(std::uint32_t idx, std::uint32_t generation);
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
  // Reservation table: a SlotPool whose per-slot generation makes
  // recycled SpineReservationHandles detectably stale.
  core::SlotPool<Reservation> reservations_;
  std::map<std::uint64_t, std::uint32_t> reservation_by_pair_;
  std::uint64_t reservation_version_ = 0;
  // Slot-schedule table: same SlotPool staleness contract as the
  // reservation table; a pair may hold several schedules (multi-path).
  core::SlotPool<SlotSchedule> schedules_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> schedules_by_pair_;
  std::uint64_t schedule_version_ = 0;
  SlotCalendar calendar_;
  rsf::sim::SimTime slot_duration_ = rsf::sim::SimTime::microseconds(1);
  rsf::sim::SimTime slot_timeout_ = rsf::sim::SimTime::microseconds(150);
  std::map<std::uint64_t, std::uint64_t> pair_demand_;
  telemetry::CounterSet& counters_;
  // Hot-path counter slots (stable references into counters_).
  std::uint64_t& packets_slot_;
  std::uint64_t& bytes_slot_;
  std::uint64_t& drops_slot_;
  std::uint64_t& reserved_bytes_slot_;
  std::uint64_t& slotted_bytes_slot_;
  telemetry::Histogram& transfer_latency_;
  telemetry::Histogram& queue_delay_;
};

}  // namespace rsf::fabric::reference

// ---- interconnect.cpp ----

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace rsf::fabric::reference {

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
      reserved_bytes_slot_(counters_.slot("spine.reserved_bytes")),
      slotted_bytes_slot_(counters_.slot("spine.slotted_bytes")),
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
  if (params.rate.gbps_value() <= 0) {
    throw std::invalid_argument("Interconnect: non-positive spine rate");
  }
  if (params.cost <= 0) {
    throw std::invalid_argument("Interconnect: non-positive spine cost");
  }
  // The closed interval: loss_prob == 1 is a blackhole link — a
  // legitimate chaos configuration (the retransmit path above it is
  // bounded by max_retries), not a misconfiguration.
  if (params.loss_prob < 0 || params.loss_prob > 1) {
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
    // A failed link preempts every reservation pinned across it: the
    // carve returns to the residual and holders' handles go stale, so
    // their traffic falls back to the shared FIFO of whatever route
    // the transport re-plans.
    for (std::uint32_t idx = 0; idx < reservations_.size(); ++idx) {
      if (!reservations_.live(idx)) continue;
      const Reservation& r = reservations_[idx];
      if (std::find(r.route.begin(), r.route.end(), id) == r.route.end()) continue;
      teardown_reservation(idx);
      counters_.add("spine.reservation_preemptions");
    }
    // Slot schedules pinned across the dead link are preempted the
    // same way: slots return to the calendar, the residual share
    // comes back, and holders degrade through the stale handle.
    for (std::uint32_t idx = 0; idx < schedules_.size(); ++idx) {
      if (!schedules_.live(idx)) continue;
      const SlotSchedule& s = schedules_[idx];
      if (std::find(s.route.begin(), s.route.end(), id) == s.route.end()) continue;
      teardown_schedule(idx);
      counters_.add("spine.slot_preemptions");
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
  if (cost <= 0) throw std::invalid_argument("Interconnect: non-positive spine cost");
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
// Circuit reservations.
// ---------------------------------------------------------------------------

std::optional<SpineReservationHandle> Interconnect::reserve(std::uint32_t src_rack,
                                                            std::uint32_t dst_rack,
                                                            double bandwidth_fraction) {
  if (bandwidth_fraction <= 0 || bandwidth_fraction >= 1) {
    throw std::invalid_argument("Interconnect: reservation fraction outside (0, 1)");
  }
  if (src_rack == dst_rack) return std::nullopt;
  if (reservation_by_pair_.contains(pair_key(src_rack, dst_rack))) return std::nullopt;
  auto route_opt = compute_route(src_rack, dst_rack);
  if (!route_opt || route_opt->empty()) return std::nullopt;
  const std::vector<SpineLinkId>& route = *route_opt;
  // Admission: every crossed direction must keep a positive residual
  // after the carve. Checked before any mutation, so a refused
  // reservation leaves no partial carve behind.
  std::vector<int> hop_dir(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].reserved_fraction + l.dir[d].slotted_fraction + bandwidth_fraction >=
        1.0) {
      counters_.add("spine.reservations_refused");
      return std::nullopt;
    }
    hop_dir[h] = d;
    rack = far_end(route[h], rack).rack;
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].reserved_fraction += bandwidth_fraction;
  }
  const auto slot = reservations_.claim();
  Reservation& r = reservations_[slot.index];
  r.src_rack = src_rack;
  r.dst_rack = dst_rack;
  r.fraction = bandwidth_fraction;
  r.route = route;
  r.hop_dir = std::move(hop_dir);
  r.hop_busy_until.assign(route.size(), SimTime::zero());
  reservation_by_pair_[pair_key(src_rack, dst_rack)] = slot.index;
  ++reservation_version_;
  counters_.add("spine.reservations");
  return SpineReservationHandle{slot.index, slot.generation};
}

void Interconnect::teardown_reservation(std::uint32_t idx) {
  const Reservation& r = reservations_[idx];
  for (std::size_t h = 0; h < r.route.size(); ++h) {
    double& carved = links_[r.route[h]].dir[r.hop_dir[h]].reserved_fraction;
    carved -= r.fraction;
    // Float hygiene: a direction whose last reservation left must
    // serialize at exactly the full link rate again.
    if (carved < 1e-12) carved = 0.0;
  }
  reservation_by_pair_.erase(pair_key(r.src_rack, r.dst_rack));
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle.
  reservations_.recycle(idx);
  ++reservation_version_;
}

void Interconnect::release(SpineReservationHandle handle) {
  if (live_reservation(handle) == nullptr) return;  // stale: idempotent no-op
  teardown_reservation(handle.id);
  counters_.add("spine.reservation_releases");
}

bool Interconnect::reservation_active(SpineReservationHandle handle) const {
  return live_reservation(handle) != nullptr;
}

std::optional<SpineReservationHandle> Interconnect::find_reservation(
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  const auto it = reservation_by_pair_.find(pair_key(src_rack, dst_rack));
  if (it == reservation_by_pair_.end()) return std::nullopt;
  return SpineReservationHandle{it->second, reservations_.generation(it->second)};
}

const std::vector<SpineLinkId>& Interconnect::reservation_route(
    SpineReservationHandle handle) const {
  const Reservation* r = live_reservation(handle);
  if (r == nullptr) throw std::invalid_argument("Interconnect: stale reservation handle");
  return r->route;
}

double Interconnect::reservation_fraction(SpineReservationHandle handle) const {
  const Reservation* r = live_reservation(handle);
  if (r == nullptr) throw std::invalid_argument("Interconnect: stale reservation handle");
  return r->fraction;
}

double Interconnect::reserved_fraction(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].reserved_fraction;
}

phy::DataRate Interconnect::residual_rate(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  // Same expression occupy() serializes shared traffic at: × (1 − 0.0
  // − 0.0) is exact, so an uncarved, unslotted direction advertises
  // the nameplate rate.
  const Direction& dir = l.dir[direction_index(l, from_rack)];
  return l.params.rate * (1.0 - dir.reserved_fraction - dir.slotted_fraction);
}

// ---------------------------------------------------------------------------
// Slot schedules (the TDMA regime).
// ---------------------------------------------------------------------------

void Interconnect::set_slot_duration(SimTime d) {
  if (d <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot duration");
  }
  if (schedule_count() > 0) {
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

std::optional<SpineScheduleHandle> Interconnect::reserve_slots(
    std::uint32_t src_rack, std::uint32_t dst_rack, int period, int duty,
    const std::vector<SpineLinkId>& avoid) {
  // Shape errors are caller bugs and throw; everything below is a
  // legitimate runtime refusal and returns nullopt.
  if (period < 1 || period > SlotCalendar::kFrameSlots ||
      SlotCalendar::kFrameSlots % period != 0 || duty < 1 || duty > period) {
    throw std::invalid_argument("Interconnect: invalid slot schedule shape");
  }
  if (src_rack == dst_rack) return std::nullopt;
  auto route_opt = avoid.empty() ? compute_route(src_rack, dst_rack)
                                 : compute_route_avoiding(src_rack, dst_rack, avoid);
  if (!route_opt || route_opt->empty()) {
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  const std::vector<SpineLinkId>& route = *route_opt;
  const double fraction = static_cast<double>(duty) / static_cast<double>(period);
  // Admission, phase 1 — headroom: every crossed direction must keep a
  // positive shared residual after the schedule's share leaves it
  // (duty == period therefore always refuses: a schedule may not starve
  // the shared FIFO outright). Checked before any mutation.
  std::vector<int> hop_dir(route.size());
  std::vector<SlotCalendar::LineId> lines(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].reserved_fraction + l.dir[d].slotted_fraction + fraction >= 1.0) {
      counters_.add("spine.slot_refusals");
      return std::nullopt;
    }
    hop_dir[h] = d;
    lines[h] = line_of(route[h], d);
    rack = far_end(route[h], rack).rack;
  }
  // Admission, phase 2 — contention: the calendar must find `duty`
  // offsets free on every crossed line simultaneously. A refusal here
  // (third-party overlap) also leaves no partial state behind.
  const SlotMask mask = calendar_.propose(lines, period, duty);
  if (mask == 0) {
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  const SlotCalendar::Handle booking =
      calendar_.book(std::vector<SlotCalendar::LineId>(lines), mask);
  if (!booking.valid()) {
    // Unreachable after a successful propose() (same lines, same
    // mask, no mutation in between), but refuse defensively rather
    // than leak an untracked claim.
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].slotted_fraction += fraction;
  }
  const auto slot = schedules_.claim();
  SlotSchedule& s = schedules_[slot.index];
  s.src_rack = src_rack;
  s.dst_rack = dst_rack;
  s.fraction = fraction;
  s.booking = booking;
  s.mask = mask;
  s.route = route;
  s.hop_dir = std::move(hop_dir);
  s.hop_busy_until.assign(route.size(), SimTime::zero());
  s.last_activity = sim_->now();
  s.timeout = slot_timeout_;
  schedules_by_pair_[pair_key(src_rack, dst_rack)].push_back(slot.index);
  ++schedule_version_;
  counters_.add("spine.slot_reservations");
  arm_schedule_expiry(slot.index, slot.generation);
  return SpineScheduleHandle{slot.index, slot.generation};
}

void Interconnect::teardown_schedule(std::uint32_t idx) {
  const SlotSchedule& s = schedules_[idx];
  calendar_.release(s.booking);
  for (std::size_t h = 0; h < s.route.size(); ++h) {
    double& slotted = links_[s.route[h]].dir[s.hop_dir[h]].slotted_fraction;
    slotted -= s.fraction;
    // Float hygiene: a direction whose last schedule left must
    // serialize shared traffic at exactly the full residual again.
    if (slotted < 1e-12) slotted = 0.0;
  }
  const auto it = schedules_by_pair_.find(pair_key(s.src_rack, s.dst_rack));
  std::vector<std::uint32_t>& pair = it->second;
  pair.erase(std::find(pair.begin(), pair.end(), idx));
  if (pair.empty()) schedules_by_pair_.erase(it);
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle (and disarming the pending expiry event).
  schedules_.recycle(idx);
  ++schedule_version_;
}

void Interconnect::release_slots(SpineScheduleHandle handle) {
  if (live_schedule(handle) == nullptr) return;  // stale: idempotent no-op
  teardown_schedule(handle.id);
  counters_.add("spine.slot_releases");
}

bool Interconnect::schedule_active(SpineScheduleHandle handle) const {
  return live_schedule(handle) != nullptr;
}

std::vector<SpineScheduleHandle> Interconnect::find_schedules(
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  std::vector<SpineScheduleHandle> out;
  const auto it = schedules_by_pair_.find(pair_key(src_rack, dst_rack));
  if (it == schedules_by_pair_.end()) return out;
  out.reserve(it->second.size());
  for (const std::uint32_t idx : it->second) {
    out.push_back(SpineScheduleHandle{idx, schedules_.generation(idx)});
  }
  return out;
}

const std::vector<SpineLinkId>& Interconnect::schedule_route(
    SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->route;
}

SlotMask Interconnect::schedule_mask(SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->mask;
}

double Interconnect::schedule_fraction(SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->fraction;
}

double Interconnect::slotted_fraction(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].slotted_fraction;
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

void Interconnect::arm_schedule_expiry(std::uint32_t idx, std::uint32_t generation) {
  const SlotSchedule& s = schedules_[idx];
  const SimTime deadline = s.last_activity + s.timeout;
  // Weak: a fleet idling toward drain must not be kept alive by lease
  // housekeeping. The generation capture disarms the event when the
  // schedule is released/preempted and the slot recycled before it
  // fires — possibly into a different pair's schedule.
  sim_->schedule_weak_at(deadline, [this, idx, generation] {
    if (schedules_.get_live(idx, generation) == nullptr) return;
    const SlotSchedule& sched = schedules_[idx];
    if (sim_->now() >= sched.last_activity + sched.timeout) {
      teardown_schedule(idx);
      counters_.add("spine.slot_expirations");
      return;
    }
    // A send renewed the lease since this was armed; chase the new
    // deadline.
    arm_schedule_expiry(idx, generation);
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
      dir.busy_until,
      l.params.rate * (1.0 - dir.reserved_fraction - dir.slotted_fraction),
      l.params.latency, size);
  dir.busy_total += dir.busy_until - std::max(sim_->now(), before);
  return arrival;
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineReservationHandle reservation, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool reserved_slice = false;
  if (const Reservation* r = live_reservation(reservation)) {
    // The packet rides its circuit only on hops the reservation
    // actually pinned in this direction; anything else (a re-planned
    // detour, a stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < r->route.size(); ++h) {
      if (r->route[h] == id && r->hop_dir[h] == d) {
        Reservation& mr = reservations_[reservation.id];
        arrival = occupy_fifo(mr.hop_busy_until[h], ml.params.rate * r->fraction,
                              ml.params.latency, size);
        reserved_slice = true;
        reserved_bytes_slot_ +=
            static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
        break;
      }
    }
  }
  if (!reserved_slice) arrival = occupy(ml, d, size);
  return finish_packet(ml, d, arrival, std::move(cb));
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineScheduleHandle schedule, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool slotted = false;
  if (const SlotSchedule* s = live_schedule(schedule)) {
    // The packet rides its slots only on hops the schedule actually
    // pinned in this direction; anything else (a re-planned detour, a
    // stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < s->route.size(); ++h) {
      if (s->route[h] == id && s->hop_dir[h] == d) {
        SlotSchedule& ms = schedules_[schedule.id];
        // Wait for the pair's next owned calendar slot past both now
        // and the schedule's own per-hop FIFO, then serialize at the
        // FULL link rate inside it — the calendar's admission rule
        // guarantees nobody else owns these slots, so the hop is
        // collision-free.
        const SimTime start =
            next_owned_time(std::max(sim_->now(), ms.hop_busy_until[h]), ms.mask);
        ms.hop_busy_until[h] = start;
        arrival = occupy_fifo(ms.hop_busy_until[h], ml.params.rate, ml.params.latency,
                              size);
        // Each slotted send renews the inactivity lease.
        ms.last_activity = sim_->now();
        slotted = true;
        slotted_bytes_slot_ +=
            static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
        break;
      }
    }
  }
  if (!slotted) arrival = occupy(ml, d, size);
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

bool Interconnect::transfer(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                            DeliveryCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.transfers_refused");
    return false;
  }
  const SimTime arrival = occupy(links_[id], d, size);
  counters_.add("spine.transfers");
  if (cb) {
    sim_->schedule_at(arrival, [cb = std::move(cb), arrival] { cb(arrival); });
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

}  // namespace rsf::fabric::reference
