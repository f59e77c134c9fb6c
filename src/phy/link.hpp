// rsf::phy — logical links.
//
// A logical link is what routing and flow scheduling see: a pipe
// between two nodes with a rate, a latency, an error model and a power
// draw. Under the hood it is an ordered chain of cable segments joined
// by physical-layer bypasses (PLP #2); a plain adjacent link is the
// one-segment special case. Splitting/bundling (PLP #1) rearranges the
// lanes each segment uses.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "phy/fec.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::phy {

class PhysicalPlant;

/// One hop of a logical link across one cable, using a subset of that
/// cable's lanes.
struct LinkSegment {
  CableId cable = kInvalidCable;
  std::vector<int> lanes;
};

class LogicalLink {
 public:
  LogicalLink(const PhysicalPlant* plant, LinkId id, NodeId end_a, NodeId end_b,
              std::vector<LinkSegment> segments, FecSpec fec)
      : plant_(plant),
        id_(id),
        end_a_(end_a),
        end_b_(end_b),
        segments_(std::move(segments)),
        fec_(fec) {}

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] NodeId end_a() const { return end_a_; }
  [[nodiscard]] NodeId end_b() const { return end_b_; }
  [[nodiscard]] bool connects(NodeId n) const { return n == end_a_ || n == end_b_; }
  [[nodiscard]] NodeId other_end(NodeId n) const;

  [[nodiscard]] const std::vector<LinkSegment>& segments() const { return segments_; }
  /// Number of physical bypass joints traffic crosses (segments - 1).
  [[nodiscard]] int bypass_joints() const { return static_cast<int>(segments_.size()) - 1; }

  [[nodiscard]] const FecSpec& fec() const { return fec_; }

  /// Lanes per segment (equal across segments by construction).
  [[nodiscard]] int lane_count() const {
    return segments_.empty() ? 0 : static_cast<int>(segments_.front().lanes.size());
  }

  // --- Derived transport metrics (computed against the owning plant) ---

  /// Sum of member lane rates of one segment (all segments equal).
  [[nodiscard]] DataRate raw_rate() const;
  /// Raw rate minus FEC overhead — what payload actually gets.
  [[nodiscard]] DataRate effective_rate() const;
  /// End-to-end propagation: cable flight times + per-joint bypass
  /// latency. No switching logic is traversed at joints — that is the
  /// point of PLP #2.
  [[nodiscard]] rsf::sim::SimTime propagation_delay() const;
  /// Serialization of `frame` at the effective rate.
  [[nodiscard]] rsf::sim::SimTime serialization_delay(DataSize frame) const;
  /// serialization + propagation + FEC codec latency for one frame.
  [[nodiscard]] rsf::sim::SimTime one_way_latency(DataSize frame) const;

  /// Worst pre-FEC BER across all member lanes (conservative link BER).
  [[nodiscard]] double worst_pre_fec_ber() const;
  /// Probability a frame is lost to uncorrectable errors end-to-end.
  [[nodiscard]] double frame_loss_prob(DataSize frame) const;
  /// Residual post-FEC BER at the link's current worst-lane BER.
  [[nodiscard]] double post_fec_ber() const;

  /// Member-lane power plus bypass-joint power.
  [[nodiscard]] double power_watts() const;

  /// True when every member lane is up (link can carry traffic).
  /// Cached: lane state only changes through PhysicalPlant mutators,
  /// which invalidate the cache — so the per-hop usability check is a
  /// flag read, not a lane scan.
  [[nodiscard]] bool ready() const {
    if (ready_cache_ < 0) ready_cache_ = compute_ready() ? 1 : 0;
    return ready_cache_ != 0;
  }

  /// Reservation: a link handed to one flow as a dedicated circuit.
  /// Reserved links are invisible to general routing; only the owning
  /// flow's packets cross them. Cleared implicitly by any structural
  /// operation (the successor links start unreserved).
  [[nodiscard]] const std::optional<std::uint64_t>& reserved_for() const {
    return reserved_for_;
  }

 private:
  friend class PhysicalPlant;
  std::optional<std::uint64_t> reserved_for_;

  [[nodiscard]] bool compute_ready() const;
  /// Called by the plant whenever a member lane's state may have
  /// changed (training transitions, power-off, hard failure/repair).
  void invalidate_ready() const { ready_cache_ = -1; }

  /// Drop every cache derived from fec_. Lane rates, cable lengths and
  /// the segment chain are immutable for a link's lifetime, so the
  /// rate/propagation caches only need computing once; the FEC caches
  /// are re-primed lazily after a mode change.
  void invalidate_fec_caches() {
    eff_rate_valid_ = false;
    loss_memo_.fill(LossMemo{});
    post_fec_memo_ = PostFecMemo{};
  }

  const PhysicalPlant* plant_;
  LinkId id_;
  NodeId end_a_;
  NodeId end_b_;
  std::vector<LinkSegment> segments_;
  FecSpec fec_;

  // Derived-metric caches: these sit on the per-packet hop path, where
  // recomputing (lane loops, lgamma-based FEC tail sums) dominated the
  // event loop. The FEC memos key on BER because Lane::set_pre_fec_ber
  // is public and notifies nobody: an out-of-band BER change misses
  // the memo instead of reading a stale value.
  mutable bool raw_rate_valid_ = false;
  mutable DataRate raw_rate_cache_ = DataRate::zero();
  mutable bool prop_valid_ = false;
  mutable rsf::sim::SimTime prop_cache_ = rsf::sim::SimTime::zero();
  mutable bool eff_rate_valid_ = false;
  mutable DataRate eff_rate_cache_ = DataRate::zero();
  /// Per-segment frame loss keyed on (segment BER, loss_units). The
  /// units are what FecSpec::frame_loss_prob reads of the frame: the
  /// codeword count on coded links (a partial last packet shares the
  /// full packets' entry whenever it fills as many codewords), the
  /// frame bits on uncoded ones.
  struct LossMemo {
    double ber = -1.0;
    double units = -1.0;
    double loss = 0.0;
  };
  [[nodiscard]] double loss_units(DataSize frame) const {
    return fec_.n == 0 ? static_cast<double>(frame.bit_count()) : fec_.codewords(frame);
  }
  mutable std::array<LossMemo, 4> loss_memo_{};
  mutable unsigned loss_memo_next_ = 0;
  /// post_fec_ber() keyed on the worst-lane BER (CRC epochs ask for
  /// every link every epoch).
  struct PostFecMemo {
    double ber = -1.0;
    double post = 0.0;
  };
  mutable PostFecMemo post_fec_memo_{};
  /// -1 unknown, else 0/1. See ready().
  mutable std::int8_t ready_cache_ = -1;
};

}  // namespace rsf::phy
