#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/random.hpp"

namespace rsfbench {

namespace {

using rsf::phy::DataSize;
using rsf::sim::SimTime;

// A workload that has not drained by horizon x this is reported as
// unfinished instead of looping forever.
constexpr std::int64_t kDrainCapFactor = 40;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof v);
}

std::uint64_t counter_sum(const rsf::telemetry::CounterSet& c, std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : c.counters()) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) sum += value;
  }
  return sum;
}

/// Network-level counts of one rack, added into `out`.
void add_rack_counts(rsf::runtime::FabricRuntime& rt, LayerCounts& out) {
  const rsf::fabric::Network& net = rt.network();
  const auto& c = net.counters();
  out.packets += c.get("net.packets_injected");
  const auto& hops = net.hop_counts();
  out.hops += static_cast<std::uint64_t>(hops.mean() * static_cast<double>(hops.count()) + 0.5);
  out.retransmits += c.get("net.retransmits");
  out.reroute_waits += c.get("net.reroute_waits");
  out.plp_commands += counter_sum(rt.engine().counters(), "plp.submitted.");
  out.plp_commands_failed += counter_sum(rt.engine().counters(), "plp.failed.");
  if (rt.has_controller()) out.crc_epochs += rt.controller().epochs_completed();
}

/// Quantiles in [0, 1) by stratified sampling: every block of n draws
/// takes one value from each of n equal strata, in seeded order. Each
/// draw keeps the target distribution, while the sum over a block stays
/// close to its expectation for every seed, so a heavy-tailed workload
/// offers about the same bytes whatever the seed.
class StratifiedQuantiles {
 public:
  explicit StratifiedQuantiles(std::size_t n) : block_(n), next_(n) {}

  double draw(rsf::sim::RandomStream& rng) {
    if (next_ == block_.size()) {
      const auto n = static_cast<double>(block_.size());
      for (std::size_t k = 0; k < block_.size(); ++k) {
        block_[k] = (static_cast<double>(k) + rng.uniform()) / n;
      }
      for (std::size_t k = block_.size() - 1; k > 0; --k) {
        std::swap(block_[k], block_[static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
      }
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<double> block_;
  std::size_t next_;
};

/// Bounded Pareto on [lo, hi] with shape alpha, by its inverse CDF.
double bounded_pareto(double u, double alpha, double lo, double hi) {
  const double tail = std::pow(lo / hi, alpha);
  return lo * std::pow(1.0 - u * (1.0 - tail), -1.0 / alpha);
}

/// A gap of mean x uniform(0.5, 1.5): arrivals keep their seeded
/// jitter, but a source's arrival count over a horizon barely moves.
SimTime jittered_gap(rsf::sim::RandomStream& rng, SimTime mean) {
  return mean * rng.uniform(0.5, 1.5);
}

// --- rack workloads ------------------------------------------------------

enum class RackMix { kOverload, kUniform };

class RackWorkload final : public Workload {
 public:
  RackWorkload(RackMix mix, std::uint64_t seed, Size size)
      : Workload(horizon_for(mix, size)),
        mix_(mix),
        rt_(config(seed, size)),
        rng_(seed, mix == RackMix::kOverload ? "rsfbench.rack_overload"
                                             : "rsfbench.rack_uniform"),
        next_at_(rt_.node_count()) {
    for (auto& t : next_at_) t = draw_gap();  // a seeded phase per source
    rt_.start();
  }

  rsf::sim::Simulator& sim() override { return rt_.sim(); }
  rsf::runtime::FabricRuntime& rack() override { return rt_; }

  LayerCounts counts() override {
    LayerCounts c;
    c.events = rt_.sim().executed();
    add_rack_counts(rt_, c);
    c.flow_slots = rt_.network().flow_slots();
    return c;
  }

 protected:
  bool next_arrival(Arrival& out) override {
    // Merge the per-source arrival processes in (time, source) order.
    std::uint32_t src = 0;
    for (std::uint32_t n = 1; n < next_at_.size(); ++n) {
      if (next_at_[n] < next_at_[src]) src = n;
    }
    if (next_at_[src] > horizon_) return false;
    out.at = next_at_[src];
    out.src = src;
    const auto& p = rt_.rack_params();
    if (mix_ == RackMix::kOverload) {
      const int x = static_cast<int>(src) % p.width;
      const int y = static_cast<int>(src) / p.width;
      out.dst = rt_.node_at(p.width - 1 - x, p.height - 1 - y);
      out.bytes = 64 * 1024;
    } else {
      do {
        out.dst = static_cast<std::uint32_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(rt_.node_count()) - 1));
      } while (out.dst == src);
      out.bytes = static_cast<std::int64_t>(bounded_pareto(sizes_.draw(rng_), 1.2, 1e3, 1e6));
    }
    next_at_[src] = next_at_[src] + draw_gap();
    return true;
  }

  void start_flow(std::uint64_t id, const Arrival& a) override {
    rsf::fabric::FlowSpec spec;
    spec.id = id;
    spec.src = a.src;
    spec.dst = a.dst;
    spec.size = DataSize::bytes(a.bytes);
    spec.start = a.at;
    rt_.network().start_flow(spec, [this](const rsf::fabric::FlowResult& r) {
      record({r.spec.id, r.spec.size.bit_count() / 8, r.started.ps(), r.finished.ps(),
              r.retransmits, r.failed});
    });
  }

  void stop_and_drain() override {
    rt_.stop();
    rt_.run_until();
  }

  std::string metrics_table() override { return rt_.metrics_table().to_string(); }

  void check_runtime(Outcome& out) override {
    const rsf::fabric::Network& net = rt_.network();
    const std::uint64_t busy = net.flow_slots() - net.free_flow_slots();
    if (net.flows_completed() != out.completed || net.flows_failed() != out.failed ||
        busy != out.inflight) {
      out.check_failures.push_back(
          "network conservation: completed " + std::to_string(net.flows_completed()) +
          " failed " + std::to_string(net.flows_failed()) + " busy slots " +
          std::to_string(busy) + " vs benchmark " + std::to_string(out.completed) + "/" +
          std::to_string(out.failed) + "/" + std::to_string(out.inflight));
    }
  }

 private:
  static SimTime horizon_for(RackMix mix, Size size) {
    if (size == Size::kTiny) return SimTime::microseconds(300);
    return mix == RackMix::kOverload ? SimTime::microseconds(1000)
                                     : SimTime::milliseconds(6);
  }

  static rsf::runtime::RuntimeConfig config(std::uint64_t seed, Size size) {
    rsf::runtime::RuntimeConfig cfg;
    cfg.shape = rsf::runtime::RackShape::kGrid;
    cfg.rack.width = size == Size::kTiny ? 4 : 8;
    cfg.rack.height = cfg.rack.width;
    cfg.rack.lanes_per_cable = 2;
    cfg.rack.lanes_per_link = 2;
    cfg.rack.net_config.seed = seed;
    cfg.crc.enable_auto_torus = true;
    return cfg;
  }

  /// One arrival per source every ~10 us. Overload: 64 KB to the
  /// point-mirrored node, about four times the grid's bisection, on
  /// jittered periodic arrivals so every seed offers the same load.
  /// Uniform: heavy-tailed 1 KB-1 MB flows to uniform destinations,
  /// Poisson arrivals, ~15% load.
  SimTime draw_gap() {
    if (mix_ == RackMix::kOverload) return jittered_gap(rng_, kMeanGap);
    return SimTime::picoseconds(
        static_cast<std::int64_t>(rng_.exponential(static_cast<double>(kMeanGap.ps()))));
  }

  static constexpr SimTime kMeanGap = SimTime::microseconds(10);

  RackMix mix_;
  rsf::runtime::FabricRuntime rt_;
  rsf::sim::RandomStream rng_;
  StratifiedQuantiles sizes_{1024};
  std::vector<SimTime> next_at_;  // next arrival per source node
};

// --- fleet workload ------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, Size size)
      : Workload(size == Size::kTiny ? SimTime::microseconds(300) : SimTime::milliseconds(2)),
        fleet_(config(seed, size)),
        rng_(seed, "rsfbench.fleet_skew") {
    // Two down/up flaps of the first rack0-rack1 leg while traffic to
    // rack 0 is heaviest; its parallel twin keeps the pair connected.
    flaps_ = {{horizon_ * 0.25, false},
              {horizon_ * 0.40, true},
              {horizon_ * 0.60, false},
              {horizon_ * 0.75, true}};
    next_at_ = draw_gap();
    fleet_.start();
  }

  rsf::sim::Simulator& sim() override { return fleet_.sim(); }
  rsf::runtime::FabricRuntime& rack() override { return fleet_.rack(0); }
  rsf::runtime::FleetRuntime* fleet() override { return &fleet_; }

  LayerCounts counts() override {
    LayerCounts c;
    c.events = fleet_.sim().executed();
    for (std::size_t r = 0; r < fleet_.rack_count(); ++r) add_rack_counts(fleet_.rack(r), c);
    const auto& s = fleet_.spine().counters();
    c.spine_packets = s.get("spine.packets");
    c.spine_retransmits = s.get("spine.retransmits");
    c.spine_reroutes = s.get("spine.packet_reroutes");
    c.route_cache_hits = s.get("spine.route_cache_hits");
    c.route_cache_misses = s.get("spine.route_cache_misses");
    c.slot_reservations = s.get("spine.slot_reservations");
    c.slot_refusals = s.get("spine.slot_refusals");
    c.spine_bytes = s.get("spine.bytes");
    c.slotted_bytes = s.get("spine.slotted_bytes");
    c.fleet_epochs = fleet_.controller().epochs_completed();
    c.flow_slots = fleet_.flow_slots();
    c.packet_slots = fleet_.packet_slots();
    return c;
  }

 protected:
  bool next_arrival(Arrival& out) override {
    if (next_at_ > horizon_) return false;
    const auto racks = static_cast<std::uint32_t>(fleet_.rack_count());
    const auto nodes = fleet_.rack(0).node_count();
    out.at = next_at_;
    out.src_rack = static_cast<std::uint32_t>(rng_.uniform_int(0, racks - 1));
    // Half of the cross-rack traffic goes to rack 0; the rest spreads
    // over the other racks.
    if (out.src_rack != 0 && rng_.bernoulli(0.5)) {
      out.dst_rack = 0;
    } else {
      do {
        out.dst_rack = static_cast<std::uint32_t>(rng_.uniform_int(1, racks - 1));
      } while (out.dst_rack == out.src_rack);
    }
    out.src = static_cast<std::uint32_t>(rng_.uniform_int(0, nodes - 1));
    out.dst = static_cast<std::uint32_t>(rng_.uniform_int(0, nodes - 1));
    out.bytes = (8 + static_cast<std::int64_t>(sizes_.draw(rng_) * 56)) * 1024;
    next_at_ = next_at_ + draw_gap();
    return true;
  }

  void start_flow(std::uint64_t id, const Arrival& a) override {
    // The scripted spine flaps sit beside the steady sends: applied at
    // the first injection at or after their time.
    while (next_flap_ < flaps_.size() && flaps_[next_flap_].first <= a.at) {
      fleet_.spine().set_link_up(kFlapLink, flaps_[next_flap_].second);
      ++next_flap_;
    }
    rsf::runtime::FleetFlowSpec spec;
    spec.id = id;
    spec.src = {a.src_rack, a.src};
    spec.dst = {a.dst_rack, a.dst};
    spec.size = DataSize::bytes(a.bytes);
    spec.start = a.at;
    fleet_.start_flow(spec, [this](const rsf::runtime::FleetFlowResult& r) {
      record({r.spec.id, r.spec.size.bit_count() / 8, r.started.ps(), r.finished.ps(),
              r.retransmits, r.failed});
    });
  }

  void stop_and_drain() override {
    // A flap still pending at the horizon is applied now, so every
    // episode ends with the leg up.
    while (next_flap_ < flaps_.size()) {
      fleet_.spine().set_link_up(kFlapLink, flaps_[next_flap_++].second);
    }
    fleet_.stop();
    fleet_.run_until();
  }

  std::string metrics_table() override { return fleet_.metrics_table().to_string(); }

  void check_runtime(Outcome& out) override {
    const std::uint64_t busy = fleet_.flow_slots() - fleet_.free_flow_slots();
    if (fleet_.flows_completed() != out.completed || fleet_.flows_failed() != out.failed ||
        busy != out.inflight) {
      out.check_failures.push_back("fleet conservation: completed " +
                                   std::to_string(fleet_.flows_completed()) + " failed " +
                                   std::to_string(fleet_.flows_failed()) + " busy slots " +
                                   std::to_string(busy));
    }
    if (fleet_.free_flow_slots() != fleet_.flow_slots() ||
        fleet_.free_packet_slots() != fleet_.packet_slots()) {
      out.check_failures.push_back(
          "fleet slot pools not back to baseline: flows " +
          std::to_string(fleet_.free_flow_slots()) + "/" + std::to_string(fleet_.flow_slots()) +
          " packets " + std::to_string(fleet_.free_packet_slots()) + "/" +
          std::to_string(fleet_.packet_slots()));
    }
    for (std::size_t r = 0; r < fleet_.rack_count(); ++r) {
      const auto& net = fleet_.rack(r).network();
      if (net.free_flow_slots() != net.flow_slots()) {
        out.check_failures.push_back("rack " + std::to_string(r) +
                                     " leg slots not back to baseline");
      }
    }
  }

 private:
  static constexpr rsf::fabric::SpineLinkId kFlapLink = 0;

  static rsf::runtime::FleetConfig config(std::uint64_t seed, Size size) {
    rsf::runtime::FleetConfig fc;
    const std::uint32_t racks = size == Size::kTiny ? 4 : 8;
    for (std::uint32_t r = 0; r < racks; ++r) {
      rsf::runtime::RackSpec rack;
      rack.config.rack.width = 4;
      rack.config.rack.height = 4;
      rack.config.rack.net_config.seed = seed + r;
      fc.racks.push_back(rack);
    }
    // A spine ring with two parallel 25 Gbps legs per adjacency (ids
    // 2i and 2i+1 join rack i and rack i+1).
    for (std::uint32_t r = 0; r < racks; ++r) {
      for (int leg = 0; leg < 2; ++leg) {
        rsf::runtime::SpineSpec s;
        s.rack_a = r;
        s.rack_b = (r + 1) % racks;
        s.rate = rsf::phy::DataRate::gbps(25);
        s.loss_prob = 1e-3;
        fc.spine.push_back(s);
      }
    }
    fc.seed = seed;
    fc.workers = 1;
    fc.enable_controller = true;
    fc.controller.epoch = SimTime::microseconds(50);
    fc.controller.schedules.enable = true;
    fc.controller.schedules.multipath = true;
    return fc;
  }

  SimTime draw_gap() { return jittered_gap(rng_, kMeanGap); }

  static constexpr SimTime kMeanGap = SimTime::nanoseconds(1500);

  rsf::runtime::FleetRuntime fleet_;
  rsf::sim::RandomStream rng_;
  StratifiedQuantiles sizes_{64};
  SimTime next_at_;
  std::vector<std::pair<SimTime, bool>> flaps_;
  std::size_t next_flap_ = 0;
};

}  // namespace

std::unique_ptr<Workload> Workload::make(std::string_view name, std::uint64_t seed,
                                         Size size) {
  if (name == "rack_overload") {
    return std::make_unique<RackWorkload>(RackMix::kOverload, seed, size);
  }
  if (name == "rack_uniform") return std::make_unique<RackWorkload>(RackMix::kUniform, seed, size);
  if (name == "fleet_skew") return std::make_unique<FleetWorkload>(seed, size);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::size_t Workload::inject() {
  const SimTime step_end = clock_ + kStep;
  std::size_t started = 0;
  while (!arrivals_done_) {
    if (!have_pending_) {
      have_pending_ = next_arrival(pending_);
      if (!have_pending_) {
        arrivals_done_ = true;
        break;
      }
    }
    if (pending_.at >= step_end) break;
    offered_bytes_.push_back(pending_.bytes);
    start_flow(offered_bytes_.size(), pending_);
    have_pending_ = false;
    ++started;
  }
  return started;
}

void Workload::advance() {
  clock_ = clock_ + kStep;
  sim().run_until(clock_);
}

bool Workload::drained() const {
  if (clock_ > horizon_ * kDrainCapFactor) return true;
  return arrivals_done_ && results_.size() == offered_bytes_.size();
}

Outcome Workload::finish() {
  stop_and_drain();
  Outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string table = metrics_table();
  out.metrics_table_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  out.offered = offered_bytes_.size();
  for (std::int64_t b : offered_bytes_) out.offered_bytes += static_cast<std::uint64_t>(b);
  std::sort(results_.begin(), results_.end(),
            [](const FlowRecord& a, const FlowRecord& b) { return a.id < b.id; });
  std::uint64_t h = fnv1a(1469598103934665603ull, table.data(), table.size());
  std::vector<bool> seen(offered_bytes_.size(), false);
  for (const FlowRecord& r : results_) {
    if (r.id == 0 || r.id > offered_bytes_.size() || seen[r.id - 1] ||
        r.bytes != offered_bytes_[r.id - 1]) {
      out.check_failures.push_back("flow " + std::to_string(r.id) +
                                   " reported twice, unknown or with the wrong size");
      break;
    }
    seen[r.id - 1] = true;
    (r.failed ? out.failed : out.completed) += 1;
    (r.failed ? out.failed_bytes : out.completed_bytes) += static_cast<std::uint64_t>(r.bytes);
    h = fnv1a_value(h, r.id);
    h = fnv1a_value(h, r.started_ps);
    h = fnv1a_value(h, r.finished_ps);
    h = fnv1a_value(h, r.retransmits);
    h = fnv1a_value(h, static_cast<std::uint8_t>(r.failed));
  }
  out.digest = h;
  // In flight: offered flows the benchmark saw no result for. The
  // runtime's own count (busy flow slots) must agree: check_runtime().
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) continue;
    ++out.inflight;
    out.inflight_bytes += static_cast<std::uint64_t>(offered_bytes_[i]);
  }
  if (out.completed + out.failed + out.inflight != out.offered ||
      out.completed_bytes + out.failed_bytes + out.inflight_bytes != out.offered_bytes) {
    out.check_failures.push_back("flow/byte conservation violated");
  }
  check_runtime(out);
  return out;
}

}  // namespace rsfbench
