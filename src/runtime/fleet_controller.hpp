// rsf::runtime — the spine-aware fleet controller.
//
// A FleetController is the fleet's brain: a periodic control loop on
// the shared clock that closes the gap PR 2 left open — racks adapted
// independently and nothing repriced the spine. Every epoch it
// observes each spine link's per-direction utilisation (serialization
// time diffed between ticks) and queue backlog (how far ahead the FIFO
// is booked), derives a congestion cost, and reprices the link through
// Interconnect::set_link_cost. Repricing bumps the spine version,
// which invalidates the memoized rack routes — so the per-packet
// transport re-plans onto cheaper links at the next packet, shifting
// traffic off hot spine links without touching any in-flight packet.
//
// The controller also mirrors the CRC's intra-rack circuit loop at
// fleet scope: with a claim policy enabled it diffs the spine's
// per-(src, dst) rack-pair demand between epochs, promotes pairs that
// stay hot for `promote_after` consecutive epochs into spine claims
// (hottest decayed demand score first — `demand_half_life_epochs`
// forgets ancient heat), and demotes pairs that stay idle for
// `demote_after` epochs — hysteresis on both edges so bursty demand
// doesn't thrash the claim tables. One promote/demote loop serves
// both policies; they differ only in the claim a promotion books: a
// rate share (Interconnect::reserve) under the reservation policy, or
// one or two time shares (Interconnect::reserve_slots, optionally
// split across link-disjoint routes) under the schedule policy. The
// two are mutually exclusive. Pairs that lose a claim to a link
// failure or lease expiry are forgotten and must re-earn their
// promotion on the surviving topology.
//
// Repricing is claim-aware: utilisation is judged against the
// residual rate a direction advertises (Interconnect::residual_rate),
// with the claimed fraction counted as spoken-for capacity — so a hot
// claimed link can no longer advertise itself as cheap to the shared
// traffic that would only get its residual.
//
// The loop schedules weak events (like the CRC's epochs), so "run
// until the workload drains" still terminates, and it draws no random
// numbers: fleet runs stay bit-for-bit deterministic with the
// controller on.
//
// Metrics land in the owning registry under "fleet.*":
// fleet.epochs, fleet.reprices, fleet.hot_links, fleet.promotions and
// fleet.demotions (rate shares), fleet.schedule_promotions,
// fleet.schedule_demotions and fleet.schedule_splits (time shares)
// (counters) and fleet.max_spine_util (time series).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fabric/interconnect.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"

namespace rsf::runtime {

/// The promote/demote hysteresis both claim policies share.
struct FleetClaimPolicy {
  bool enable = false;
  /// Offered byte·hops per epoch (the pair's spine resource
  /// footprint, see Interconnect::pair_demand_slot) at or above which
  /// a pair counts hot.
  std::uint64_t hot_bytes_per_epoch = 64 * 1024;
  /// Offered byte·hops per epoch at or below which a promoted pair
  /// counts idle (set well below hot_bytes_per_epoch for hysteresis).
  std::uint64_t idle_bytes_per_epoch = 4 * 1024;
  /// Consecutive hot epochs before a pair is promoted.
  int promote_after = 2;
  /// Consecutive idle epochs before a promoted pair is demoted.
  int demote_after = 4;
};

/// Promotes hot pairs into spine rate shares (carves). Disabled by
/// default: the packetized shared path is the untouched baseline and
/// claims compose on top.
struct FleetReservationPolicy : FleetClaimPolicy {
  /// Per-direction capacity fraction carved per promoted pair.
  double fraction = 0.4;
  /// Cap on concurrently promoted pairs.
  std::size_t max_reservations = 4;
};

/// Promotes hot pairs into spine time shares: rotor-style periodic
/// slot schedules from the same byte·hops demand ranking. Mutually
/// exclusive with the reservation policy (one claim discipline per
/// controller; the constructor refuses both). Disabled by default.
struct FleetSchedulePolicy : FleetClaimPolicy {
  /// Slot set booked per promoted pair: `duty` owned offsets per
  /// `period` slots (period must divide SlotCalendar::kFrameSlots,
  /// 1 <= duty <= period). duty/period is the pair's capacity share.
  int period = 4;
  int duty = 2;
  /// Cap on concurrently scheduled pairs (a split pair counts once).
  std::size_t max_schedules = 4;
  /// Split a promoted pair's duty across two routes when possible:
  /// duty − duty/2 on the cheapest route, duty/2 on the cheapest
  /// route avoiding the primary's links (parallel spine links carry
  /// the pair concurrently; packets round-robin the legs). When no
  /// disjoint second route exists the remainder books on the default
  /// route; when even that fails the pair keeps the reduced primary.
  bool multipath = false;
};

struct FleetControllerConfig {
  /// Control epoch: how often spine links are observed and repriced.
  rsf::sim::SimTime epoch = rsf::sim::SimTime::microseconds(100);
  /// Cost floor every link returns to when idle.
  double base_cost = 1.0;
  /// Cost added per unit of utilisation (fraction of the epoch the
  /// direction spent serializing; can exceed 1 when the FIFO is booked
  /// ahead of real time).
  double utilization_weight = 8.0;
  /// Cost added per microsecond of queued backlog at the tick.
  double backlog_weight_per_us = 0.25;
  /// Reprice only when the derived cost moved more than this from the
  /// link's current cost — hysteresis so stable load doesn't thrash
  /// the route cache every epoch.
  double cost_epsilon = 0.5;
  /// Utilisation at or above which a link counts toward
  /// "fleet.hot_links".
  double hot_threshold = 0.7;
  /// Half-life, in epochs, of the per-pair demand score the promotion
  /// ranking orders by: each epoch the score decays by 2^(−1/h)
  /// before the epoch's fresh byte·hops are added, so a pair that was
  /// hot an hour ago stops outranking a pair that is hot now. 0
  /// disables decay (a decay factor of 1 — the cumulative ranking).
  double demand_half_life_epochs = 0.0;
  /// Rate-share promote/demote policy.
  FleetReservationPolicy reservations{};
  /// Time-share promote/demote policy (mutually exclusive with the
  /// reservation policy).
  FleetSchedulePolicy schedules{};
};

/// A serialized snapshot of the controller's learned state: per-pair
/// demand baselines, decayed ranking scores, hysteresis streaks, and
/// claim *intents*. Intents, not handles: a controller that died lost
/// its leases (the fabric releases a dead controller's claims, the
/// mcsotdma renewal/timeout model collapsed to immediate expiry), so a
/// restore never resurrects a handle — it marks the pair as holding a
/// full promote streak, and the first post-restart epoch re-earns the
/// claim through the normal admission path if the pair is still hot.
struct FleetControllerCheckpoint {
  struct PairEntry {
    /// (src_rack << 32) | dst_rack.
    std::uint64_t key = 0;
    std::uint64_t last_bytes = 0;
    double score = 0.0;
    int hot_streak = 0;
    int idle_streak = 0;
    /// The pair held a live claim at checkpoint time.
    bool claimed = false;
  };
  std::vector<PairEntry> pairs;
  /// Epochs the checkpointing controller had completed (informational;
  /// a restored controller's own epoch count starts at zero).
  std::uint64_t epochs = 0;
};

class FleetController {
 public:
  /// Metrics land in `registry` under "fleet.*" when one is supplied
  /// (the FleetRuntime passes the fleet registry); without one the
  /// controller owns a private registry, keeping direct construction
  /// in unit tests working.
  FleetController(rsf::sim::Simulator* sim, fabric::Interconnect* spine,
                  FleetControllerConfig config = {},
                  telemetry::Registry* registry = nullptr);

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Begin epoch ticking. The first observation window opens now; the
  /// first repricing decision lands one epoch later. A controller
  /// starting on a warm spine (a mid-run restart) seeds its demand
  /// baselines at the current cumulative totals for pairs it has no
  /// state for, so the fleet's entire history is not misread as one
  /// epoch's delta — restored pairs keep their checkpointed baselines
  /// (the outage gap *is* their post-restart heat).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // --- checkpoint / restore (the chaos harness's restart primitive) ---

  /// Freeze the learned state. Cheap (one pass over the pair map) and
  /// side-effect free; safe to take mid-epoch on a running controller.
  [[nodiscard]] FleetControllerCheckpoint checkpoint() const;

  /// Load a checkpoint into a stopped (typically freshly built)
  /// controller, replacing any existing pair state. Claim intents are
  /// restored as full promote streaks — see FleetControllerCheckpoint.
  /// Throws while running.
  void restore(const FleetControllerCheckpoint& ckpt);

  /// Release every claim this controller holds and forget the handles
  /// (streaks survive). The kill path: the fabric expiring a dead
  /// controller's leases before the process goes away. Returns how
  /// many claims were released.
  std::size_t release_claims();

  [[nodiscard]] std::uint64_t epochs_completed() const { return epochs_; }
  [[nodiscard]] std::uint64_t reprices() const { return reprices_; }
  /// Rack pairs promoted into / demoted out of spine claims.
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }
  [[nodiscard]] const FleetControllerConfig& config() const { return config_; }

  /// Peak per-direction utilisation seen in the last completed epoch.
  [[nodiscard]] double last_max_utilization() const { return last_max_util_; }

  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }
  [[nodiscard]] const telemetry::TimeSeries& utilization_series() const {
    return util_series_;
  }

 private:
  void tick();
  /// Capture every direction's cumulative busy time as the baseline
  /// the next tick diffs against (links added mid-run start cold).
  void snapshot_busy();
  /// One epoch of the enabled claim policy: diff per-pair demand,
  /// advance hot/idle streaks, promote and demote.
  void run_claim_policy();
  /// The enabled claim policy, or nullptr.
  [[nodiscard]] const FleetClaimPolicy* claim_policy() const;

  rsf::sim::Simulator* sim_;
  fabric::Interconnect* spine_;
  FleetControllerConfig config_;

  bool running_ = false;
  rsf::sim::EventId next_tick_ = rsf::sim::kInvalidEventId;
  std::uint64_t epochs_ = 0;
  std::uint64_t reprices_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  double last_max_util_ = 0.0;
  /// Per link, per direction ([0]: leaving a.rack): busy_total at the
  /// last tick.
  std::vector<std::array<rsf::sim::SimTime, 2>> last_busy_;
  /// Claim policy state per (src << 32 | dst) rack pair: demand
  /// baseline, the decayed ranking score, hysteresis streaks, and the
  /// held claims. Ordered map → deterministic promote order within an
  /// epoch.
  struct PairState {
    std::uint64_t last_bytes = 0;
    /// Decayed byte·hops: score × 2^(−1/half_life) per epoch, plus
    /// the epoch's delta. With decay off this is the cumulative total.
    double score = 0.0;
    int hot_streak = 0;
    int idle_streak = 0;
    /// The held claims: one rate share, or one or two time shares
    /// (two when the promotion split across disjoint routes). Empty =
    /// not promoted.
    std::vector<fabric::SpineClaimHandle> claims;
  };
  /// Book a promoted pair's claim(s) into `st`; false when the spine
  /// refused everything (the caller backs the streak off).
  bool book_claims(std::uint32_t src, std::uint32_t dst, PairState& st);
  std::map<std::uint64_t, PairState> pair_state_;
  /// Pairs holding live claims (≤ the policy's cap).
  std::size_t promoted_ = 0;

  // Instruments live in the registry (owned locally only when the
  // caller supplied none).
  std::unique_ptr<telemetry::Registry> own_registry_;
  telemetry::Registry* registry_;
  telemetry::CounterSet& counters_;
  telemetry::TimeSeries& util_series_;
};

}  // namespace rsf::runtime
