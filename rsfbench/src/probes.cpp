#include "probes.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "fabric/interconnect.hpp"
#include "fabric/slot_calendar.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace rsfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rsf::phy::DataSize;
using rsf::sim::SimTime;

// Host time each probe spends; long against the clock's resolution,
// short against a run.
constexpr std::chrono::milliseconds kProbeBudget{40};

/// Repeats `round` (which returns the calls it made) until the budget
/// is spent; `events` reads the simulator's executed count, if any.
template <typename Round, typename Events>
PerCall repeat(Round&& round, Events&& events) {
  PerCall out;
  const std::uint64_t events0 = events();
  const auto t0 = Clock::now();
  auto t = t0;
  do {
    out.calls += round();
    t = Clock::now();
  } while (t - t0 < kProbeBudget);
  if (out.calls == 0) return out;
  const double n = static_cast<double>(out.calls);
  out.ns = std::chrono::duration<double, std::nano>(t - t0).count() / n;
  out.events = static_cast<double>(events() - events0) / n;
  return out;
}

template <typename Round>
PerCall repeat(Round&& round) {
  return repeat(std::forward<Round>(round), [] { return std::uint64_t{0}; });
}

struct HoldModel {
  rsf::sim::Simulator sim;
  rsf::sim::RandomStream rng;
  Delays delays = Delays::kNear;
  double mean_us = 1;
  std::uint64_t budget = 0;  // successors still to schedule

  SimTime delay() {
    switch (delays) {
      case Delays::kNear:
        return SimTime::microseconds(rng.uniform(0.001, 1.0));
      case Delays::kFar:
        return SimTime::microseconds(rng.uniform(10.0, 1000.0));
      case Delays::kMeanOf:
        break;
    }
    return SimTime::microseconds(rng.exponential(mean_us));
  }
};

struct HoldEvent {
  HoldModel* m;
  void operator()() const {
    if (m->budget == 0) return;
    --m->budget;
    m->sim.schedule_after(m->delay(), HoldEvent{m});
  }
};
static_assert(rsf::sim::is_inline_event_v<HoldEvent>);

}  // namespace

PerCall probe_sched(std::size_t preload, Delays delays, double mean_us, std::uint64_t seed) {
  HoldModel m{rsf::sim::Simulator{}, rsf::sim::RandomStream(seed, "rsfbench.sched"), delays,
              mean_us > 0 ? mean_us : 1e-3, 0};
  const std::size_t pending = preload > 0 ? preload : 1;
  for (std::size_t i = 0; i < pending; ++i) m.sim.schedule_after(m.delay(), HoldEvent{&m});
  // Each round keeps the pending set at `pending` for a fixed number
  // of hold operations, then lets it run on.
  constexpr std::uint64_t kRound = 4096;
  return repeat(
      [&] {
        m.budget = kRound;
        const std::uint64_t before = m.sim.executed();
        while (m.budget > 0) m.sim.run_events(m.budget);
        return m.sim.executed() - before;
      },
      [&] { return m.sim.executed(); });
}

PerCall probe_account_frame(rsf::runtime::FabricRuntime& rt, std::uint64_t seed) {
  rsf::sim::RandomStream rng(seed, "rsfbench.account_frame");
  const std::vector<rsf::phy::LinkId> links = rt.plant().link_ids();
  const DataSize frame = DataSize::bytes(1024);
  return repeat([&] {
    for (rsf::phy::LinkId id : links) rt.plant().account_frame(id, frame, rng);
    return links.size();
  });
}

PerCall probe_hop(rsf::runtime::FabricRuntime& rt, std::uint64_t seed) {
  rsf::sim::RandomStream rng(seed, "rsfbench.hop");
  const std::uint32_t nodes = rt.node_count();
  // One destination per source at the largest distance up to
  // kHopProbeDistance that the rack has.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (int k = kHopProbeDistance; k > 0 && pairs.empty(); --k) {
    for (std::uint32_t src = 0; src < nodes; ++src) {
      std::vector<std::uint32_t> at_k;
      for (std::uint32_t dst = 0; dst < nodes; ++dst) {
        if (dst != src && rt.router().hop_count(src, dst) == k) at_k.push_back(dst);
      }
      if (at_k.empty()) continue;
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(at_k.size()) - 1);
      pairs.emplace_back(src, at_k[static_cast<std::size_t>(pick)]);
    }
  }
  std::uint64_t hops = 0;
  return repeat(
      [&] {
        const std::uint64_t before = hops;
        for (const auto& [src, dst] : pairs) {
          rt.network().send_probe(src, dst, DataSize::bytes(1024),
                                  [&hops](SimTime, int h, bool) { hops += h; });
        }
        rt.run_until();
        return hops - before;
      },
      [&] { return rt.sim().executed(); });
}

PerCall probe_next_hop_warm(rsf::runtime::FabricRuntime& rt) {
  const std::uint32_t nodes = rt.node_count();
  rsf::fabric::Router& router = rt.router();
  for (std::uint32_t d = 0; d < nodes; ++d) (void)router.next_hop(0, d);
  std::uint64_t found = 0;
  PerCall out = repeat([&] {
    for (std::uint32_t at = 0; at < nodes; ++at) {
      for (std::uint32_t dst = 0; dst < nodes; ++dst) {
        if (at != dst && router.next_hop(at, dst)) ++found;
      }
    }
    return std::uint64_t{nodes} * (nodes - 1);
  });
  if (found == 0) out.ns = 0;  // a rack without routes measured nothing
  return out;
}

PerCall probe_next_hop_cold(rsf::runtime::FabricRuntime& rt) {
  const std::uint32_t nodes = rt.node_count();
  rsf::fabric::Router& router = rt.router();
  std::uint32_t dst = 1;
  return repeat([&] {
    router.bump_prices();
    (void)router.next_hop(0, dst);
    dst = dst + 1 < nodes ? dst + 1 : 1;
    return std::uint64_t{1};
  });
}

PerCall probe_usable(rsf::runtime::FabricRuntime& rt) {
  const std::vector<rsf::phy::LinkId> links = rt.plant().link_ids();
  std::uint64_t usable = 0;
  PerCall out = repeat([&] {
    for (rsf::phy::LinkId id : links) usable += rt.topology().usable(id) ? 1 : 0;
    return links.size();
  });
  if (usable == 0) out.ns = 0;
  return out;
}

PerCall probe_spine_send(SpineRegime regime, std::uint64_t seed) {
  rsf::sim::Simulator sim;
  rsf::telemetry::Registry registry;
  rsf::fabric::Interconnect spine(&sim, &registry, seed);
  rsf::fabric::SpineLinkParams link;
  link.a = {0, 0};
  link.b = {1, 0};
  const rsf::fabric::SpineLinkId id = spine.add_link(link);
  rsf::fabric::SpineReservationHandle carve;
  rsf::fabric::SpineScheduleHandle slots;
  if (regime == SpineRegime::kCarve) carve = spine.reserve(0, 1, 0.5).value();
  if (regime == SpineRegime::kSlotted) slots = spine.reserve_slots(0, 1, 4, 2).value();
  const DataSize size = DataSize::bytes(1024);
  std::uint64_t delivered = 0;
  // Bursts of 16 sends, each drained before the next: the queue stays
  // short, so the kernel's near path carries the deliveries.
  constexpr int kBurst = 16;
  PerCall out = repeat(
      [&] {
        for (int i = 0; i < kBurst; ++i) {
          auto cb = [&delivered](SimTime, bool ok) { delivered += ok ? 1 : 0; };
          switch (regime) {
            case SpineRegime::kPacket:
              spine.send_packet(id, 0, size, cb);
              break;
            case SpineRegime::kCarve:
              spine.send_packet(id, 0, size, carve, cb);
              break;
            case SpineRegime::kSlotted:
              spine.send_packet(id, 0, size, slots, cb);
              break;
          }
        }
        sim.run_until();
        return std::uint64_t{kBurst};
      },
      [&] { return sim.executed(); });
  if (delivered == 0) out.ns = 0;
  return out;
}

PerCall probe_slot_propose() {
  rsf::fabric::SlotCalendar calendar;
  using LineId = rsf::fabric::SlotCalendar::LineId;
  // Lines 0..7 with every other line half booked; the probe asks for a
  // two-hop route crossing one booked and one free line.
  for (LineId line = 0; line < 8; line += 2) {
    (void)calendar.book({line}, rsf::fabric::SlotCalendar::periodic_mask(4, 0) |
                                    rsf::fabric::SlotCalendar::periodic_mask(4, 1));
  }
  const std::vector<LineId> route = {2, 3};
  std::uint64_t found = 0;
  PerCall out = repeat([&] {
    for (int i = 0; i < 64; ++i) found += calendar.propose(route, 4, 2) != 0 ? 1 : 0;
    return std::uint64_t{64};
  });
  if (found == 0) out.ns = 0;
  return out;
}

PerCall probe_crc_epoch(rsf::runtime::FabricRuntime& rt) {
  if (!rt.has_controller()) return {};
  const SimTime epoch = rt.controller().config().epoch;
  rt.start();
  PerCall out = repeat(
      [&] {
        constexpr std::int64_t kEpochs = 16;
        rt.run_until(rt.now() + epoch * kEpochs);
        return std::uint64_t{kEpochs};
      },
      [&] { return rt.sim().executed(); });
  rt.stop();
  rt.run_until();
  return out;
}

PerCall probe_fleet_epoch(rsf::runtime::FleetRuntime* fleet) {
  std::unique_ptr<rsf::runtime::FleetRuntime> reference;
  if (fleet == nullptr) {
    rsf::runtime::FleetConfig fc;
    for (int r = 0; r < 2; ++r) {
      rsf::runtime::RackSpec rack;
      rack.config.enable_crc = false;
      fc.racks.push_back(rack);
    }
    for (int leg = 0; leg < 2; ++leg) {
      rsf::runtime::SpineSpec s;
      s.rack_a = 0;
      s.rack_b = 1;
      fc.spine.push_back(s);
    }
    fc.enable_controller = true;
    fc.controller.schedules.enable = true;
    fc.controller.schedules.multipath = true;
    reference = std::make_unique<rsf::runtime::FleetRuntime>(std::move(fc));
    fleet = reference.get();
  }
  rsf::runtime::FleetController& ctl = fleet->controller();
  const SimTime epoch = ctl.config().epoch;
  ctl.start();
  PerCall out = repeat(
      [&] {
        constexpr std::int64_t kEpochs = 16;
        fleet->run_until(fleet->now() + epoch * kEpochs);
        return std::uint64_t{kEpochs};
      },
      [&] { return fleet->sim().executed(); });
  ctl.stop();
  fleet->run_until();
  return out;
}

}  // namespace rsfbench
