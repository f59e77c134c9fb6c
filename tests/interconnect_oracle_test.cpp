// Randomized differential test of fabric::Interconnect.
//
// The reference is the spine as it stood before the rate-share carve
// and the time-share slot schedule became one claim record
// (interconnect_reference.hpp, verbatim). Seeded random op sequences
// drive the reference and the class under test side by side — link
// and shared-risk-group up/down, repricing, carves and slot bookings
// (with and without an avoid-set), releases of live and stale
// handles, packet sends with no handle, a carve, a slot schedule or a
// stale handle, bulk transfers, and clock advances that cross slot
// lease expiry — and after every op the two must agree bit for bit:
// return values and exceptions, every direction's carved and slotted
// fractions and residual rate, route() for every rack pair, each
// claim's liveness, route, fraction and mask, the per-pair lookups,
// the whole spine registry, and every packet's (arrival, delivered)
// callback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "fabric/interconnect.hpp"
#include "interconnect_reference.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/table.hpp"

namespace rsf {
namespace {

namespace ref = fabric::reference;
using fabric::SlotMask;
using fabric::SpineLinkId;
using phy::DataSize;
using rsf::sim::SimTime;

// ---------------------------------------------------------------------------
// The class under test's claim API, in the spelling the harness uses.
// Everything below this block is written against these names only.
// ---------------------------------------------------------------------------

using SutHandle = fabric::SpineClaimHandle;
constexpr auto kSutRate = fabric::SpineDiscipline::kRateShare;
constexpr auto kSutTime = fabric::SpineDiscipline::kTimeShare;

struct Sut {
  fabric::Interconnect& ic;

  void release(SutHandle h, bool) const { ic.release(h); }
  bool active(SutHandle h, bool) const { return ic.claim_active(h); }
  std::vector<SutHandle> find(std::uint32_t s, std::uint32_t d, bool rate) const {
    return ic.find_claims(s, d, rate ? kSutRate : kSutTime);
  }
  const std::vector<SpineLinkId>& route(SutHandle h, bool) const { return ic.claim_route(h); }
  double fraction(SutHandle h, bool) const { return ic.claim_fraction(h); }
  SlotMask mask(SutHandle h) const { return ic.claim_mask(h); }
  std::size_t count(bool rate) const { return ic.claim_count(rate ? kSutRate : kSutTime); }
  std::uint64_t version(bool rate) const {
    return ic.claim_version(rate ? kSutRate : kSutTime);
  }
  double claimed(SpineLinkId id, std::uint32_t rack, bool rate) const {
    return ic.claimed_fraction(id, rack, rate ? kSutRate : kSutTime);
  }
};

// ---------------------------------------------------------------------------
// The reference's claim API, same spelling.
// ---------------------------------------------------------------------------

struct RefHandle {
  ref::SpineReservationHandle carve;
  ref::SpineScheduleHandle slots;
};

struct Ref {
  ref::Interconnect& ic;

  void release(const RefHandle& h, bool rate) const {
    if (rate) {
      ic.release(h.carve);
    } else {
      ic.release_slots(h.slots);
    }
  }
  bool active(const RefHandle& h, bool rate) const {
    return rate ? ic.reservation_active(h.carve) : ic.schedule_active(h.slots);
  }
  const std::vector<SpineLinkId>& route(const RefHandle& h, bool rate) const {
    return rate ? ic.reservation_route(h.carve) : ic.schedule_route(h.slots);
  }
  double fraction(const RefHandle& h, bool rate) const {
    return rate ? ic.reservation_fraction(h.carve) : ic.schedule_fraction(h.slots);
  }
  SlotMask mask(const RefHandle& h) const { return ic.schedule_mask(h.slots); }
  std::size_t count(bool rate) const {
    return rate ? ic.reservation_count() : ic.schedule_count();
  }
  std::uint64_t version(bool rate) const {
    return rate ? ic.reservation_version() : ic.schedule_version();
  }
  double claimed(SpineLinkId id, std::uint32_t rack, bool rate) const {
    return rate ? ic.reserved_fraction(id, rack) : ic.slotted_fraction(id, rack);
  }
};

// ---------------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One claim the generator made: its discipline and both sides'
/// handles. Kept after release so stale handles get exercised.
struct Claim {
  bool rate = true;
  RefHandle r;
  SutHandle s;
};

/// What an op returned (or threw), rendered identically for both sides.
struct Outcome {
  std::string text;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <typename F>
Outcome capture(F&& f) {
  try {
    return {f()};
  } catch (const std::exception& e) {
    return {std::string("throw ") + typeid(e).name() + ": " + e.what()};
  }
}

struct Delivery {
  std::uint64_t packet = 0;
  std::int64_t arrival_ps = 0;
  bool delivered = false;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

class Oracle {
 public:
  explicit Oracle(std::uint64_t seed) : rng_(seed) {
    racks_ = 4 + static_cast<std::uint32_t>(seed % 2);
    // A ring plus a few chords and parallel legs, so disjoint second
    // routes, detours and overlapping shared-risk groups all occur.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ends;
    for (std::uint32_t r = 0; r < racks_; ++r) ends.emplace_back(r, (r + 1) % racks_);
    for (int extra = 0; extra < 3; ++extra) {
      const auto a = pick(racks_);
      auto b = pick(racks_ - 1);
      if (b >= a) ++b;
      ends.emplace_back(a, b);
    }
    static constexpr double kGbps[] = {10, 25, 40, 100};
    static constexpr std::int64_t kLatencyNs[] = {500, 1000, 2000};
    static constexpr double kLoss[] = {0.0, 0.0, 0.1};
    static constexpr double kCost[] = {1.0, 1.0, 2.0, 0.5};
    for (const auto& [a, b] : ends) {
      const double gbps = kGbps[pick(4)];
      const SimTime latency = SimTime::nanoseconds(kLatencyNs[pick(3)]);
      const double loss = kLoss[pick(3)];
      const double cost = kCost[pick(4)];
      ref::SpineLinkParams rp;
      rp.a = {a, 0};
      rp.b = {b, 1};
      rp.rate = phy::DataRate::gbps(gbps);
      rp.latency = latency;
      rp.loss_prob = loss;
      rp.cost = cost;
      fabric::SpineLinkParams sp;
      sp.a = {a, 0};
      sp.b = {b, 1};
      sp.rate = phy::DataRate::gbps(gbps);
      sp.latency = latency;
      sp.loss_prob = loss;
      sp.cost = cost;
      const SpineLinkId ri = ref_ic_.add_link(rp);
      const SpineLinkId si = sut_ic_.add_link(sp);
      EXPECT_EQ(ri, si);
      links_.emplace_back(a, b);
    }
    for (int g = 0; g < 3; ++g) {
      std::vector<SpineLinkId> members;
      const std::uint32_t n = 2 + pick(2);
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto id = static_cast<SpineLinkId>(pick(links_.size()));
        if (std::find(members.begin(), members.end(), id) == members.end()) {
          members.push_back(id);
        }
      }
      EXPECT_EQ(ref_ic_.add_shared_risk_group(members),
                sut_ic_.add_shared_risk_group(members));
    }
    // Short slots and leases: clock advances cross expiry often.
    ref_ic_.set_slot_duration(SimTime::nanoseconds(500));
    ref_ic_.set_slot_timeout(SimTime::microseconds(30));
    sut_ic_.set_slot_duration(SimTime::nanoseconds(500));
    sut_ic_.set_slot_timeout(SimTime::microseconds(30));
  }

  /// Run `ops` random ops, comparing after each; stops at the first
  /// divergence.
  void run(int ops) {
    compare("setup");
    for (int step = 0; step < ops && !::testing::Test::HasFailure(); ++step) {
      const std::string what = step_once();
      compare("op " + std::to_string(step) + ": " + what);
    }
  }

 private:
  std::uint32_t pick(std::size_t n) {
    return static_cast<std::uint32_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_));
  }

  /// One random op on both sides; returns its description.
  std::string step_once() {
    const std::uint32_t roll = pick(100);
    if (roll < 9) return op_link_up();
    if (roll < 15) return op_group_up();
    if (roll < 21) return op_reprice();
    if (roll < 33) return op_reserve();
    if (roll < 45) return op_reserve_slots();
    if (roll < 53) return op_release();
    if (roll < 82) return op_send();
    if (roll < 85) return op_transfer();
    return op_advance();
  }

  void expect_same(const Outcome& r, const Outcome& s, const std::string& what) {
    EXPECT_EQ(r, s) << what << "\n  reference: " << r.text << "\n  under test: " << s.text;
  }

  std::string op_link_up() {
    // Occasionally an unknown id: both must throw alike.
    const auto id = static_cast<SpineLinkId>(pick(links_.size() + 1));
    const bool up = pick(2) == 0;
    const std::string what = "set_link_up(" + std::to_string(id) + ", " + (up ? "up" : "down") + ")";
    expect_same(capture([&] { ref_ic_.set_link_up(id, up); return std::string("ok"); }),
                capture([&] { sut_ic_.set_link_up(id, up); return std::string("ok"); }), what);
    return what;
  }

  std::string op_group_up() {
    const auto g = pick(ref_ic_.shared_risk_group_count());
    const bool up = pick(2) == 0;
    const std::string what = "set_group_up(" + std::to_string(g) + ", " + (up ? "up" : "down") + ")";
    expect_same(capture([&] { ref_ic_.set_group_up(g, up); return std::string("ok"); }),
                capture([&] { sut_ic_.set_group_up(g, up); return std::string("ok"); }), what);
    return what;
  }

  std::string op_reprice() {
    static constexpr double kCost[] = {0.5, 1.0, 1.5, 2.0, 3.7, 0.0, -1.0};
    const auto id = static_cast<SpineLinkId>(pick(links_.size()));
    const double cost = kCost[pick(7)];
    const std::string what = "set_link_cost(" + std::to_string(id) + ", " + std::to_string(cost) + ")";
    expect_same(capture([&] { ref_ic_.set_link_cost(id, cost); return std::string("ok"); }),
                capture([&] { sut_ic_.set_link_cost(id, cost); return std::string("ok"); }),
                what);
    return what;
  }

  std::pair<std::uint32_t, std::uint32_t> pick_pair() {
    const auto s = pick(racks_);
    // Mostly distinct racks; src == dst is a refusal both must agree on.
    const auto d = pick(10) == 0 ? s : (s + 1 + pick(racks_ - 1)) % racks_;
    return {s, d};
  }

  std::string op_reserve() {
    static constexpr double kFraction[] = {0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.6, 0.9, 0.0, 1.0};
    const auto [s, d] = pick_pair();
    const double f = kFraction[pick(10)];
    const std::string what = "reserve(" + std::to_string(s) + ", " + std::to_string(d) + ", " +
                             std::to_string(f) + ")";
    std::optional<ref::SpineReservationHandle> rh;
    std::optional<SutHandle> sh;
    const Outcome ro = capture([&] {
      rh = ref_ic_.reserve(s, d, f);
      return std::string(rh ? "claimed" : "refused");
    });
    const Outcome so = capture([&] {
      sh = sut_ic_.reserve(s, d, f);
      return std::string(sh ? "claimed" : "refused");
    });
    expect_same(ro, so, what);
    if (rh && sh) {
      Claim c;
      c.rate = true;
      c.r.carve = *rh;
      c.s = *sh;
      claims_.push_back(c);
    }
    return what;
  }

  std::string op_reserve_slots() {
    static constexpr int kPeriod[] = {1, 2, 4, 4, 8, 8, 16, 3};
    const auto [s, d] = pick_pair();
    const int period = kPeriod[pick(8)];
    // duty in [1, period], occasionally period + 1 (a shape error).
    const int duty = 1 + static_cast<int>(pick(static_cast<std::size_t>(period) + (pick(8) == 0 ? 1 : 0)));
    std::vector<SpineLinkId> avoid;
    const std::uint32_t mode = pick(4);
    if (mode == 1) {
      // The multi-path split's shape: avoid a live claim's route.
      for (const Claim& c : claims_) {
        if (Ref{ref_ic_}.active(c.r, c.rate)) {
          avoid = Ref{ref_ic_}.route(c.r, c.rate);
          if (pick(2) == 0) break;
        }
      }
    } else if (mode == 2) {
      avoid.push_back(static_cast<SpineLinkId>(pick(links_.size())));
    }
    std::string what = "reserve_slots(" + std::to_string(s) + ", " + std::to_string(d) + ", " +
                       std::to_string(period) + ", " + std::to_string(duty) + ", avoid[";
    for (const SpineLinkId id : avoid) what += std::to_string(id) + " ";
    what += "])";
    std::optional<ref::SpineScheduleHandle> rh;
    std::optional<SutHandle> sh;
    const Outcome ro = capture([&] {
      rh = ref_ic_.reserve_slots(s, d, period, duty, avoid);
      return std::string(rh ? "claimed" : "refused");
    });
    const Outcome so = capture([&] {
      sh = sut_ic_.reserve_slots(s, d, period, duty, avoid);
      return std::string(sh ? "claimed" : "refused");
    });
    expect_same(ro, so, what);
    if (rh && sh) {
      Claim c;
      c.rate = false;
      c.r.slots = *rh;
      c.s = *sh;
      claims_.push_back(c);
    }
    return what;
  }

  std::string op_release() {
    if (claims_.empty()) return "release(nothing)";
    const auto k = pick(claims_.size());
    const Claim& c = claims_[k];
    Ref{ref_ic_}.release(c.r, c.rate);
    Sut{sut_ic_}.release(c.s, c.rate);
    return "release(claim " + std::to_string(k) + ")";
  }

  std::string op_send() {
    static constexpr std::int64_t kBytes[] = {64, 1024, 1500, 9000};
    const DataSize size = DataSize::bytes(kBytes[pick(4)]);
    SpineLinkId id = static_cast<SpineLinkId>(pick(links_.size()));
    std::uint32_t from = pick(2) == 0 ? links_[id].first : links_[id].second;
    const Claim* claim = nullptr;
    const std::uint32_t mode = pick(8);
    if (mode >= 2 && !claims_.empty()) {
      claim = &claims_[pick(claims_.size())];
      // Mostly aim at a hop the claim pinned, in its direction, so the
      // carve FIFO and the slotted path are exercised, not just the
      // fallback.
      if (mode >= 4 && Ref{ref_ic_}.active(claim->r, claim->rate)) {
        const std::vector<SpineLinkId> route = Ref{ref_ic_}.route(claim->r, claim->rate);
        // Walk from the claim's source rack (the pair's first hop
        // leaves it).
        std::uint32_t rack = claim_src(*claim);
        const auto hop = pick(route.size());
        for (std::size_t h = 0; h < hop; ++h) rack = ref_ic_.far_end(route[h], rack).rack;
        id = route[hop];
        from = rack;
      }
    } else if (mode == 1) {
      from = racks_;  // not an endpoint: both throw
    }
    const std::uint64_t packet = next_packet_++;
    std::string what = "send_packet(" + std::to_string(id) + ", from " + std::to_string(from) +
                       ", " + std::to_string(size.bit_count() / 8) + "B, " +
                       (claim == nullptr ? std::string("no handle")
                                         : (claim->rate ? "carve" : "slots")) +
                       ")";
    const Outcome ro = capture([&] {
      auto cb = [this, packet](SimTime t, bool ok) {
        ref_log_.push_back({packet, t.ps(), ok});
      };
      bool sent = false;
      if (claim == nullptr) {
        sent = ref_ic_.send_packet(id, from, size, cb);
      } else if (claim->rate) {
        sent = ref_ic_.send_packet(id, from, size, claim->r.carve, cb);
      } else {
        sent = ref_ic_.send_packet(id, from, size, claim->r.slots, cb);
      }
      return std::string(sent ? "sent" : "refused");
    });
    const Outcome so = capture([&] {
      auto cb = [this, packet](SimTime t, bool ok) {
        sut_log_.push_back({packet, t.ps(), ok});
      };
      const bool sent = claim == nullptr ? sut_ic_.send_packet(id, from, size, cb)
                                         : sut_ic_.send_packet(id, from, size, claim->s, cb);
      return std::string(sent ? "sent" : "refused");
    });
    expect_same(ro, so, what);
    return what;
  }

  std::string op_transfer() {
    const auto id = static_cast<SpineLinkId>(pick(links_.size()));
    const std::uint32_t from = pick(2) == 0 ? links_[id].first : links_[id].second;
    const DataSize size = DataSize::kilobytes(static_cast<std::int64_t>(1 + pick(8)));
    const std::uint64_t packet = next_packet_++;
    const std::string what = "transfer(" + std::to_string(id) + ", from " + std::to_string(from) + ")";
    expect_same(capture([&] {
                  return std::string(ref_ic_.transfer(id, from, size, [this, packet](SimTime t) {
                    ref_log_.push_back({packet, t.ps(), true});
                  }) ? "sent" : "refused");
                }),
                capture([&] {
                  return std::string(sut_ic_.transfer(id, from, size, [this, packet](SimTime t) {
                    sut_log_.push_back({packet, t.ps(), true});
                  }) ? "sent" : "refused");
                }),
                what);
    return what;
  }

  std::string op_advance() {
    static constexpr std::int64_t kStepNs[] = {0, 100, 1000, 5000, 20000, 50000};
    const SimTime step = SimTime::nanoseconds(kStepNs[pick(6)]);
    ref_sim_.run_until(ref_sim_.now() + step);
    sut_sim_.run_until(sut_sim_.now() + step);
    return "advance(" + std::to_string(step.ps()) + " ps)";
  }

 public:
  /// The reference's spine counters (the generator's coverage).
  const telemetry::CounterSet& reference_counters() { return ref_reg_.counters("spine"); }

 private:

  /// The claim's source rack, read from the reference's per-pair index.
  std::uint32_t claim_src(const Claim& c) const {
    for (std::uint32_t s = 0; s < racks_; ++s) {
      for (std::uint32_t d = 0; d < racks_; ++d) {
        if (c.rate) {
          if (const auto h = ref_ic_.find_reservation(s, d); h && *h == c.r.carve) return s;
        } else {
          for (const auto h : ref_ic_.find_schedules(s, d)) {
            if (h == c.r.slots) return s;
          }
        }
      }
    }
    ADD_FAILURE() << "live claim missing from the reference's pair index";
    return 0;
  }

  /// Index of the generator claim whose handle `match` accepts, or -1.
  template <typename Match>
  int claim_index(Match&& match) const {
    for (std::size_t k = 0; k < claims_.size(); ++k) {
      if (match(claims_[k])) return static_cast<int>(k);
    }
    return -1;
  }

  void compare(const std::string& what) {
    SCOPED_TRACE(what);
    const Ref r{ref_ic_};
    const Sut s{sut_ic_};
    ASSERT_EQ(ref_log_, sut_log_) << "packet callbacks diverged";
    ASSERT_EQ(ref_sim_.now(), sut_sim_.now());
    ASSERT_EQ(ref_sim_.pending(), sut_sim_.pending());
    ASSERT_EQ(ref_sim_.pending_weak(), sut_sim_.pending_weak());
    ASSERT_EQ(ref_sim_.executed(), sut_sim_.executed());
    ASSERT_EQ(ref_ic_.version(), sut_ic_.version());
    for (const bool rate : {true, false}) {
      ASSERT_EQ(r.count(rate), s.count(rate)) << (rate ? "carves" : "schedules");
      ASSERT_EQ(r.version(rate), s.version(rate)) << (rate ? "carves" : "schedules");
    }
    for (SpineLinkId id = 0; id < links_.size(); ++id) {
      SCOPED_TRACE("link " + std::to_string(id));
      ASSERT_EQ(ref_ic_.link_up(id), sut_ic_.link_up(id));
      ASSERT_EQ(bits(ref_ic_.link_cost(id)), bits(sut_ic_.link_cost(id)));
      for (const std::uint32_t rack : {links_[id].first, links_[id].second}) {
        SCOPED_TRACE("leaving rack " + std::to_string(rack));
        ASSERT_EQ(bits(r.claimed(id, rack, true)), bits(s.claimed(id, rack, true)));
        ASSERT_EQ(bits(r.claimed(id, rack, false)), bits(s.claimed(id, rack, false)));
        ASSERT_EQ(bits(ref_ic_.residual_rate(id, rack).bits_per_second()),
                  bits(sut_ic_.residual_rate(id, rack).bits_per_second()));
        ASSERT_EQ(ref_ic_.busy_time(id, rack), sut_ic_.busy_time(id, rack));
        ASSERT_EQ(ref_ic_.queue_backlog(id, rack), sut_ic_.queue_backlog(id, rack));
        ASSERT_EQ(ref_ic_.link_packets(id, rack), sut_ic_.link_packets(id, rack));
        ASSERT_EQ(ref_ic_.link_drops(id, rack), sut_ic_.link_drops(id, rack));
      }
    }
    for (std::uint32_t g = 0; g < ref_ic_.shared_risk_group_count(); ++g) {
      ASSERT_EQ(ref_ic_.group_up(g), sut_ic_.group_up(g)) << "group " << g;
    }
    for (std::uint32_t src = 0; src < racks_; ++src) {
      for (std::uint32_t dst = 0; dst < racks_; ++dst) {
        SCOPED_TRACE("pair " + std::to_string(src) + "->" + std::to_string(dst));
        ASSERT_EQ(ref_ic_.route(src, dst), sut_ic_.route(src, dst));
        // The pair lookups, mapped onto generator claim indices.
        std::vector<int> ref_found;
        if (const auto h = ref_ic_.find_reservation(src, dst)) {
          ref_found.push_back(claim_index([&](const Claim& c) { return c.rate && c.r.carve == *h; }));
        }
        for (const auto h : ref_ic_.find_schedules(src, dst)) {
          ref_found.push_back(claim_index([&](const Claim& c) { return !c.rate && c.r.slots == h; }));
        }
        std::vector<int> sut_found;
        for (const bool rate : {true, false}) {
          for (const SutHandle h : s.find(src, dst, rate)) {
            sut_found.push_back(
                claim_index([&](const Claim& c) { return c.rate == rate && c.s == h; }));
          }
        }
        ASSERT_EQ(ref_found, sut_found);
      }
    }
    for (std::size_t k = 0; k < claims_.size(); ++k) {
      SCOPED_TRACE("claim " + std::to_string(k));
      const Claim& c = claims_[k];
      const bool live = r.active(c.r, c.rate);
      ASSERT_EQ(live, s.active(c.s, c.rate));
      if (!live) continue;
      ASSERT_EQ(r.route(c.r, c.rate), s.route(c.s, c.rate));
      ASSERT_EQ(bits(r.fraction(c.r, c.rate)), bits(s.fraction(c.s, c.rate)));
      if (!c.rate) ASSERT_EQ(r.mask(c.r), s.mask(c.s));
    }
    // The whole spine registry: every spine.* counter (route-cache
    // hits and misses included) and both latency histograms.
    ASSERT_EQ(ref_reg_.counters("spine").counters(), sut_reg_.counters("spine").counters());
    ASSERT_EQ(ref_reg_.to_table().to_string(), sut_reg_.to_table().to_string());
  }

  std::mt19937_64 rng_;
  std::uint32_t racks_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links_;
  std::vector<Claim> claims_;
  std::uint64_t next_packet_ = 0;
  std::vector<Delivery> ref_log_;
  std::vector<Delivery> sut_log_;
  rsf::sim::Simulator ref_sim_;
  rsf::sim::Simulator sut_sim_;
  telemetry::Registry ref_reg_;
  telemetry::Registry sut_reg_;
  ref::Interconnect ref_ic_{&ref_sim_, &ref_reg_, 7};
  fabric::Interconnect sut_ic_{&sut_sim_, &sut_reg_, 7};
};

TEST(InterconnectOracle, RandomOpSequencesMatchTheReference) {
  // 32 seeds x 600 ops: 19,200 compared rounds. That is enough for
  // rarer interleavings too, such as two carves preempted together
  // while a third still shares one of their other hops, where the
  // order the walk subtracts their fractions shows in the bits.
  telemetry::CounterSet seen;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Oracle oracle(seed);
    oracle.run(600);
    if (::testing::Test::HasFailure()) return;
    seen.merge(oracle.reference_counters());
  }
  // The sequences reached every path the comparison is meant to cover.
  for (const char* name :
       {"spine.reservations", "spine.reservations_refused", "spine.reservation_releases",
        "spine.reservation_preemptions", "spine.reserved_bytes", "spine.slot_reservations",
        "spine.slot_refusals", "spine.slot_releases", "spine.slot_preemptions",
        "spine.slot_expirations", "spine.slotted_bytes", "spine.packet_drops",
        "spine.packets_refused", "spine.srlg_cuts", "spine.srlg_repairs",
        "spine.srlg_noop_repairs", "spine.reprices", "spine.transfers"}) {
    EXPECT_GT(seen.get(name), 0u) << name;
  }
}

}  // namespace
}  // namespace rsf
