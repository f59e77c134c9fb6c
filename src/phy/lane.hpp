// rsf::phy — individual physical lanes.
//
// A lane is one SerDes-to-SerDes bit pipe (one fibre wavelength, one
// copper pair group). Lanes have a state machine (off / training / up),
// a signalling rate, a time-varying pre-FEC bit error rate, and a power
// draw per state. PLP #3 (on/off) and PLP #5 (per-lane statistics)
// operate at this granularity.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::phy {

enum class LaneState {
  kOff = 0,    // powered down
  kTraining,   // retraining after power-on or re-bundle; carries no data
  kUp,         // carrying data
};

[[nodiscard]] std::string_view to_string(LaneState s);

/// Power draw of one lane per state, in watts. Defaults follow
/// published 25G SerDes figures (~1.1 W active including driver).
struct LanePowerParams {
  double active_w = 1.1;
  double training_w = 1.1;  // training drives the line at full swing
  double off_w = 0.05;      // leakage + wake logic

  [[nodiscard]] double watts(LaneState s) const {
    switch (s) {
      case LaneState::kOff:
        return off_w;
      case LaneState::kTraining:
        return training_w;
      case LaneState::kUp:
        return active_w;
    }
    return 0.0;
  }
};

/// PLP #5 — per-lane statistics the control plane can query.
struct LaneStats {
  std::uint64_t bits_carried = 0;
  std::uint64_t corrected_codewords = 0;
  std::uint64_t uncorrected_codewords = 0;
  double observed_pre_fec_ber = 0.0;
  rsf::sim::SimTime total_up_time = rsf::sim::SimTime::zero();
  rsf::sim::SimTime total_training_time = rsf::sim::SimTime::zero();
};

class Lane {
 public:
  /// The rate must be positive and finite and the BER a probability;
  /// both checks are written so NaN fails them. A zero rate or an
  /// out-of-range BER would otherwise hang or silently fail every
  /// flow over the lane.
  Lane(DataRate rate, LanePowerParams power, double pre_fec_ber)
      : rate_(rate), power_(power), pre_fec_ber_(pre_fec_ber) {
    if (!(rate.gbps_value() > 0) || !std::isfinite(rate.gbps_value())) {
      throw std::invalid_argument("Lane: non-positive or non-finite rate");
    }
    if (!(pre_fec_ber >= 0 && pre_fec_ber <= 1)) {
      throw std::invalid_argument("Lane: pre-FEC BER outside [0, 1]");
    }
  }

  [[nodiscard]] DataRate rate() const { return rate_; }
  [[nodiscard]] LaneState state() const { return state_; }
  [[nodiscard]] bool is_up() const { return state_ == LaneState::kUp && !failed_; }
  /// A hard-failed lane (broken fibre, dead SerDes). Training cannot
  /// revive it; only repair() (a physical intervention) clears it.
  [[nodiscard]] bool is_failed() const { return failed_; }
  [[nodiscard]] double power_watts() const { return power_.watts(state_); }
  [[nodiscard]] const LanePowerParams& power_params() const { return power_; }

  /// Current environmental pre-FEC BER on this lane.
  [[nodiscard]] double pre_fec_ber() const { return pre_fec_ber_; }
  void set_pre_fec_ber(double ber) { pre_fec_ber_ = ber; }

  /// State transitions. The *timing* of transitions (training takes
  /// tens of microseconds) is enforced by the PLP engine; the lane
  /// object only validates legality. Failed lanes ignore training
  /// transitions (the PHY keeps trying, the lane stays dark).
  void begin_training();
  void complete_training();
  void power_off();

  /// Hard failure injection and (out-of-band) repair.
  void fail();
  void repair();

  [[nodiscard]] const LaneStats& stats() const { return stats_; }
  LaneStats& mutable_stats() { return stats_; }

  // --- Decoder-telemetry sampling inputs (PLP #5), memoized ---
  //
  // PhysicalPlant::account_frame draws a corrected-codeword count per
  // lane per frame, and its inputs repeat frame after frame. Each memo
  // returns exactly the double its expression returns. The BER stays
  // in the symbol-error key because set_pre_fec_ber() notifies nobody.

  /// Symbol error rate 1 - (1 - ber)^symbol_bits at the current BER.
  [[nodiscard]] double symbol_error_prob(int symbol_bits) const {
    if (sym_memo_.ber != pre_fec_ber_ || sym_memo_.symbol_bits != symbol_bits) {
      sym_memo_ = SymbolMemo{pre_fec_ber_, symbol_bits,
                             1.0 - std::pow(1.0 - pre_fec_ber_, symbol_bits)};
    }
    return sym_memo_.p_sym;
  }

  /// exp(-mean): the Knuth Poisson limit of a corrected-codeword draw
  /// (RandomStream::poisson(mean, exp_neg_mean)). Two entries: a full
  /// frame's mean and a partial last frame's.
  [[nodiscard]] double exp_neg(double mean) const {
    for (const ExpMemo& m : exp_memo_) {
      if (m.mean == mean) return m.value;
    }
    ExpMemo& slot = exp_memo_[exp_memo_next_];
    exp_memo_next_ ^= 1U;
    slot = ExpMemo{mean, std::exp(-mean)};
    return slot.value;
  }

 private:
  DataRate rate_;
  LanePowerParams power_;
  double pre_fec_ber_;
  LaneState state_ = LaneState::kOff;
  bool failed_ = false;
  LaneStats stats_;

  // Default entries are valid: 1 - (1 - 0)^0 == 0 and exp(-0) == 1.
  struct SymbolMemo {
    double ber = 0.0;
    int symbol_bits = 0;
    double p_sym = 0.0;
  };
  struct ExpMemo {
    double mean = 0.0;
    double value = 1.0;
  };
  mutable SymbolMemo sym_memo_{};
  mutable std::array<ExpMemo, 2> exp_memo_{};
  mutable unsigned exp_memo_next_ = 0;
};

}  // namespace rsf::phy
