#include "runtime/fleet_controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsf::runtime {

using rsf::sim::SimTime;

FleetController::FleetController(rsf::sim::Simulator* sim, fabric::Interconnect* spine,
                                 FleetControllerConfig config,
                                 telemetry::Registry* registry)
    : sim_(sim),
      spine_(spine),
      config_(config),
      own_registry_(registry ? nullptr : std::make_unique<telemetry::Registry>()),
      registry_(registry ? registry : own_registry_.get()),
      counters_(registry_->counters("fleet")),
      util_series_(registry_->series("fleet.max_spine_util")) {
  if (sim_ == nullptr || spine_ == nullptr) {
    throw std::invalid_argument("FleetController: null simulator or spine");
  }
  if (config_.epoch <= SimTime::zero()) {
    throw std::invalid_argument("FleetController: non-positive epoch");
  }
  // Written so NaN fails every check: a NaN weight or cost would
  // reach set_link_cost, and a NaN half-life would feed NaN scores to
  // the promotion sort's comparator.
  if (!(config_.base_cost > 0) || !std::isfinite(config_.base_cost)) {
    throw std::invalid_argument("FleetController: non-positive base cost");
  }
  if (!(config_.utilization_weight >= 0) || !std::isfinite(config_.utilization_weight) ||
      !(config_.backlog_weight_per_us >= 0) || !std::isfinite(config_.backlog_weight_per_us)) {
    throw std::invalid_argument("FleetController: negative or non-finite cost weight");
  }
  if (!(config_.demand_half_life_epochs >= 0) ||
      !std::isfinite(config_.demand_half_life_epochs)) {
    throw std::invalid_argument("FleetController: negative demand half-life");
  }
  const FleetReservationPolicy& rp = config_.reservations;
  const FleetSchedulePolicy& sp = config_.schedules;
  // One claim discipline per controller: a pair holding both a carve
  // and a schedule would double-subtract from the shared residual and
  // the policies' demotion logic would fight.
  if (rp.enable && sp.enable) {
    throw std::invalid_argument(
        "FleetController: reservation and schedule policies are mutually exclusive");
  }
  if (rp.enable && !(rp.fraction > 0 && rp.fraction < 1)) {
    throw std::invalid_argument("FleetController: reservation fraction outside (0, 1)");
  }
  if (sp.enable &&
      (sp.period < 1 || sp.period > fabric::SlotCalendar::kFrameSlots ||
       fabric::SlotCalendar::kFrameSlots % sp.period != 0 || sp.duty < 1 ||
       sp.duty > sp.period)) {
    throw std::invalid_argument("FleetController: invalid slot schedule shape");
  }
  if (const FleetClaimPolicy* p = claim_policy();
      p != nullptr && (p->promote_after < 1 || p->demote_after < 1)) {
    throw std::invalid_argument("FleetController: non-positive hysteresis epochs");
  }
}

const FleetClaimPolicy* FleetController::claim_policy() const {
  if (config_.reservations.enable) return &config_.reservations;
  if (config_.schedules.enable) return &config_.schedules;
  return nullptr;
}

void FleetController::snapshot_busy() {
  last_busy_.resize(spine_->link_count());
  for (fabric::SpineLinkId id = 0; id < spine_->link_count(); ++id) {
    const fabric::SpineLinkParams& p = spine_->link(id);
    last_busy_[id][0] = spine_->busy_time(id, p.a.rack);
    last_busy_[id][1] = spine_->busy_time(id, p.b.rack);
  }
}

void FleetController::start() {
  if (running_) return;
  running_ = true;
  snapshot_busy();  // open the first observation window at "now"
  // Warm-spine start: pairs this controller knows nothing about get
  // their demand baseline pinned to the current cumulative total, so a
  // cold mid-run restart diffs only post-restart traffic instead of
  // misreading the fleet's whole history as one epoch's delta. At
  // t = 0 the demand map is empty and this is a no-op; checkpointed
  // pairs were restored into pair_state_ already and keep their
  // (deliberately stale) baselines.
  for (const auto& [key, total] : spine_->pair_demand()) {
    auto [it, inserted] = pair_state_.try_emplace(key);
    if (inserted) it->second.last_bytes = total;
  }
  next_tick_ = sim_->schedule_weak_after(config_.epoch, [this] { tick(); });
}

FleetControllerCheckpoint FleetController::checkpoint() const {
  FleetControllerCheckpoint ckpt;
  ckpt.epochs = epochs_;
  ckpt.pairs.reserve(pair_state_.size());
  for (const auto& [key, st] : pair_state_) {
    bool claimed = false;
    for (const fabric::SpineClaimHandle h : st.claims) {
      claimed = claimed || spine_->claim_active(h);
    }
    ckpt.pairs.push_back(
        {key, st.last_bytes, st.score, st.hot_streak, st.idle_streak, claimed});
  }
  return ckpt;
}

void FleetController::restore(const FleetControllerCheckpoint& ckpt) {
  if (running_) {
    throw std::logic_error("FleetController: restore into a running controller");
  }
  pair_state_.clear();
  promoted_ = 0;
  for (const FleetControllerCheckpoint::PairEntry& e : ckpt.pairs) {
    PairState st;
    st.last_bytes = e.last_bytes;
    st.score = e.score;
    st.hot_streak = e.hot_streak;
    st.idle_streak = e.idle_streak;
    // A claim intent restores as a full promote streak: if the pair is
    // still hot in the first post-restart epoch, the normal pass-2
    // admission re-earns the claim immediately; if it cooled during
    // the outage, the streak resets to zero there and nothing is
    // re-claimed. Handles are never resurrected.
    if (e.claimed && claim_policy() != nullptr) {
      st.hot_streak = std::max(st.hot_streak, claim_policy()->promote_after);
    }
    pair_state_.emplace(e.key, st);
  }
}

std::size_t FleetController::release_claims() {
  std::size_t released = 0;
  for (auto& [key, st] : pair_state_) {
    for (const fabric::SpineClaimHandle h : st.claims) {
      if (!spine_->claim_active(h)) continue;  // expired/preempted already
      spine_->release(h);
      ++released;
    }
    st.claims.clear();
  }
  promoted_ = 0;
  return released;
}

void FleetController::stop() {
  if (!running_) return;
  running_ = false;
  sim_->cancel(next_tick_);
  next_tick_ = rsf::sim::kInvalidEventId;
}

void FleetController::tick() {
  if (!running_) return;
  const double epoch_s = std::max(config_.epoch.sec(), 1e-12);
  // Links added since the last tick diff against a zero baseline.
  const std::size_t known = last_busy_.size();
  last_busy_.resize(spine_->link_count());
  for (std::size_t i = known; i < last_busy_.size(); ++i) last_busy_[i] = {};

  double max_util = 0.0;
  for (fabric::SpineLinkId id = 0; id < spine_->link_count(); ++id) {
    const fabric::SpineLinkParams& p = spine_->link(id);
    const std::uint32_t rack_of[2] = {p.a.rack, p.b.rack};
    double util = 0.0;
    SimTime backlog = SimTime::zero();
    for (int d = 0; d < 2; ++d) {
      const SimTime busy = spine_->busy_time(id, rack_of[d]);
      // busy_total is booked at send time, so an epoch that enqueued a
      // deep FIFO can show > 1: that is pressure, and the cost should
      // reflect it — no clamping here.
      double u = (busy - last_busy_[id][d]).sec() / epoch_s;
      last_busy_[id][d] = busy;
      // Price what shared traffic actually sees, not the nameplate
      // rate: `u` is the fraction of the epoch the *residual* FIFO
      // spent serializing, so re-express it against full capacity
      // (× residual/rate) and add the carved fraction back — carved
      // capacity is spoken-for whether or not the circuit is busy, so
      // a hot reserved direction can no longer advertise itself as
      // cheap. With nothing carved the ratio is exactly 1 and this is
      // the pre-reservation arithmetic, bit for bit.
      const double residual_ratio = spine_->residual_rate(id, rack_of[d]) / p.rate;
      u = u * residual_ratio + (1.0 - residual_ratio);
      util = std::max(util, u);
      backlog = std::max(backlog, spine_->queue_backlog(id, rack_of[d]));
    }
    max_util = std::max(max_util, util);
    if (util >= config_.hot_threshold) counters_.add("fleet.hot_links");
    const double cost = config_.base_cost + config_.utilization_weight * util +
                        config_.backlog_weight_per_us * backlog.us();
    if (std::abs(cost - spine_->link_cost(id)) > config_.cost_epsilon) {
      // set_link_cost bumps the spine version: memoized routes drop
      // and the packetized transport re-plans at its next packet.
      spine_->set_link_cost(id, cost);
      ++reprices_;
      counters_.add("fleet.reprices");
    }
  }
  last_max_util_ = max_util;
  util_series_.record(sim_->now(), max_util);
  if (claim_policy() != nullptr) run_claim_policy();
  ++epochs_;
  counters_.add("fleet.epochs");
  next_tick_ = sim_->schedule_weak_after(config_.epoch, [this] { tick(); });
}

bool FleetController::book_claims(std::uint32_t src, std::uint32_t dst, PairState& st) {
  if (config_.reservations.enable) {
    const auto h = spine_->reserve(src, dst, config_.reservations.fraction);
    if (h) st.claims = {*h};
    return h.has_value();
  }
  const FleetSchedulePolicy& sp = config_.schedules;
  if (sp.multipath && sp.duty >= 2) {
    // Rotor-style split: duty − duty/2 on the cheapest route, the
    // rest on the cheapest route avoiding the primary's links, so
    // parallel spine links carry the pair concurrently (the transport
    // round-robins its packets across the legs).
    const int secondary_duty = sp.duty / 2;
    const int primary_duty = sp.duty - secondary_duty;
    if (auto h1 = spine_->reserve_slots(src, dst, sp.period, primary_duty)) {
      if (auto h2 = spine_->reserve_slots(src, dst, sp.period, secondary_duty,
                                          spine_->claim_route(*h1))) {
        st.claims = {*h1, *h2};
        counters_.add("fleet.schedule_splits");
        return true;
      }
      // No disjoint second route (or no capacity there): top the pair
      // back up to the full duty on the default route.
      if (auto h2 = spine_->reserve_slots(src, dst, sp.period, secondary_duty)) {
        st.claims = {*h1, *h2};
        return true;
      }
      // Even the top-up was refused; the reduced primary still beats
      // nothing — keep it.
      st.claims = {*h1};
      return true;
    }
    return false;
  }
  if (auto h = spine_->reserve_slots(src, dst, sp.period, sp.duty)) {
    st.claims = {*h};
    return true;
  }
  return false;
}

void FleetController::run_claim_policy() {
  const FleetClaimPolicy& p = *claim_policy();
  const bool rate = config_.reservations.enable;
  const std::size_t cap =
      rate ? config_.reservations.max_reservations : config_.schedules.max_schedules;
  // Per-epoch multiplicative decay of the ranking score: 2^(−1/h)
  // halves a silent pair's score every h epochs, so ancient heat
  // stops outranking current heat. Half-life 0 disables decay (factor
  // 1): the score is then exactly the cumulative byte·hop total.
  const double decay = config_.demand_half_life_epochs > 0
                           ? std::exp2(-1.0 / config_.demand_half_life_epochs)
                           : 1.0;
  const auto drop_claims = [this](PairState& st) {
    for (const fabric::SpineClaimHandle h : st.claims) spine_->release(h);  // stale: no-op
    st.claims.clear();
    st.hot_streak = 0;
    st.idle_streak = 0;
    --promoted_;
  };
  // Pass 1 — streaks and demotions. The demand map only ever grows,
  // so iterating it visits every pair this fleet has offered
  // cross-rack load for — including pairs that went silent this
  // epoch (their delta is 0, their score decays, and their idle
  // streak advances).
  std::vector<std::pair<double, std::uint64_t>> candidates;  // (score, key)
  for (const auto& [key, total_bytes] : spine_->pair_demand()) {
    PairState& st = pair_state_[key];
    const std::uint64_t delta = total_bytes - st.last_bytes;
    st.last_bytes = total_bytes;
    st.score = st.score * decay + static_cast<double>(delta);
    // Claims can disappear on their own (failure preemption, lease
    // expiry), possibly one leg of a split at a time: a pair that lost
    // any claim forfeits the rest and re-earns its promotion on the
    // new topology.
    if (std::any_of(st.claims.begin(), st.claims.end(),
                    [this](fabric::SpineClaimHandle h) { return !spine_->claim_active(h); })) {
      drop_claims(st);
    }
    if (st.claims.empty()) {
      st.hot_streak = delta >= p.hot_bytes_per_epoch ? st.hot_streak + 1 : 0;
      // Rank candidates by the decayed demand score, not this epoch's
      // delta: a long multi-hop pair fills its pipeline slower and
      // would lose an early delta race to a short-haul burst.
      if (st.hot_streak >= p.promote_after) candidates.emplace_back(st.score, key);
      continue;
    }
    st.idle_streak = delta <= p.idle_bytes_per_epoch ? st.idle_streak + 1 : 0;
    if (st.idle_streak >= p.demote_after) {
      drop_claims(st);
      ++demotions_;
      counters_.add(rate ? "fleet.demotions" : "fleet.schedule_demotions");
    }
  }
  // Pass 2 — promotions, hottest first: when several pairs cleared
  // the streak this epoch, the scarce claims go to the largest decayed
  // demand score (key ascending on ties — deterministic).
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (const auto& [score, key] : candidates) {
    if (promoted_ >= cap) break;
    PairState& st = pair_state_[key];
    const auto src = static_cast<std::uint32_t>(key >> 32);
    const auto dst = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    if (book_claims(src, dst, st)) {
      st.idle_streak = 0;
      ++promoted_;
      ++promotions_;
      counters_.add(rate ? "fleet.promotions" : "fleet.schedule_promotions");
    } else {
      // No headroom, no route or no slots: back off a full promote
      // window instead of hammering admission every epoch.
      st.hot_streak = 0;
    }
  }
}

}  // namespace rsf::runtime
