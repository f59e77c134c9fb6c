// rsfbench — the three seeded workloads.
//
// A Workload owns one simulation built through the public runtime API
// (FabricRuntime for the rack workloads, FleetRuntime for the fleet)
// plus a seeded arrival process. Constructing it is the benchmark's
// set-up; the main loop then alternates inject() and advance() in fixed
// simulated-time steps until drained(), and finish() stops the control
// loops, drains the simulation, builds the final metrics table and
// checks the simulated outputs. Arrivals are generated from the seed
// and injected one step ahead, never pre-scheduled as a whole list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulator.hpp"

namespace rsfbench {

/// kFull is what BENCHMARK.json measures; kTiny keeps every mechanism
/// but shrinks racks and horizons so the fast tests finish in seconds.
enum class Size { kFull, kTiny };

inline constexpr std::string_view kWorkloadNames[] = {"rack_overload", "rack_uniform",
                                                      "fleet_skew"};

/// Every workload advances in 10 us simulated steps: long enough that a
/// step's host time is well above the clock's resolution, short enough
/// that a rack workload takes hundreds of steps.
inline constexpr rsf::sim::SimTime kStep = rsf::sim::SimTime::microseconds(10);

/// Public counters of every layer, read from outside the library.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t hops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t reroute_waits = 0;
  std::uint64_t spine_packets = 0;
  std::uint64_t spine_retransmits = 0;
  std::uint64_t spine_reroutes = 0;
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;
  std::uint64_t slot_reservations = 0;
  std::uint64_t slot_refusals = 0;
  std::uint64_t spine_bytes = 0;
  std::uint64_t slotted_bytes = 0;
  std::uint64_t plp_commands = 0;
  std::uint64_t plp_commands_failed = 0;
  std::uint64_t crc_epochs = 0;
  std::uint64_t fleet_epochs = 0;
  std::uint64_t flow_slots = 0;
  std::uint64_t packet_slots = 0;
};

/// What finish() found: flow and byte conservation, the digest of the
/// simulated results and every failed output check.
struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_bytes = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_bytes = 0;
  std::uint64_t inflight = 0;
  std::uint64_t inflight_bytes = 0;
  std::uint64_t digest = 0;
  double metrics_table_s = 0;  // host time of the final metrics_table()
  std::vector<std::string> check_failures;

  [[nodiscard]] bool ok() const { return check_failures.empty(); }
  /// Failed plus unfinished flows; every flow when a check failed.
  [[nodiscard]] std::uint64_t flows_not_done() const {
    return ok() ? offered - completed : offered;
  }
};

class Workload {
 public:
  /// Builds the runtime and arms the workload. Throws
  /// std::invalid_argument for an unknown name.
  static std::unique_ptr<Workload> make(std::string_view name, std::uint64_t seed, Size size);

  virtual ~Workload() = default;

  /// Start every flow whose arrival falls in the next step; returns
  /// how many were started.
  std::size_t inject();
  /// Run the simulation to the end of the step.
  void advance();
  /// Arrivals exhausted and every offered flow finished (or the
  /// simulated-time cap hit, which the output check reports).
  [[nodiscard]] bool drained() const;
  /// Stop the control loops, drain, build the final metrics table,
  /// digest the results and run the output checks. Call once.
  Outcome finish();

  [[nodiscard]] virtual rsf::sim::Simulator& sim() = 0;
  [[nodiscard]] virtual LayerCounts counts() = 0;
  /// The rack the per-layer probes run on (rack 0 of a fleet).
  [[nodiscard]] virtual rsf::runtime::FabricRuntime& rack() = 0;
  [[nodiscard]] virtual rsf::runtime::FleetRuntime* fleet() { return nullptr; }

 protected:
  struct Arrival {
    rsf::sim::SimTime at;
    std::uint32_t src_rack = 0;
    std::uint32_t src = 0;
    std::uint32_t dst_rack = 0;
    std::uint32_t dst = 0;
    std::int64_t bytes = 0;
  };
  struct FlowRecord {
    std::uint64_t id = 0;
    std::int64_t bytes = 0;
    std::int64_t started_ps = 0;
    std::int64_t finished_ps = 0;
    std::uint64_t retransmits = 0;
    bool failed = false;
  };

  explicit Workload(rsf::sim::SimTime horizon) : horizon_(horizon) {}

  /// Fills `out` with the next arrival, at or after the previous one;
  /// false once the horizon is passed.
  virtual bool next_arrival(Arrival& out) = 0;
  virtual void start_flow(std::uint64_t id, const Arrival& a) = 0;
  virtual void stop_and_drain() = 0;
  /// The final metrics table, rendered.
  virtual std::string metrics_table() = 0;
  /// Runtime-side conservation and slot-pool checks.
  virtual void check_runtime(Outcome& out) = 0;

  void record(const FlowRecord& r) { results_.push_back(r); }

  rsf::sim::SimTime horizon_;
  std::vector<std::int64_t> offered_bytes_;  // by flow id - 1
  std::vector<FlowRecord> results_;

 private:
  rsf::sim::SimTime clock_ = rsf::sim::SimTime::zero();  // start of the next step
  bool have_pending_ = false;
  bool arrivals_done_ = false;
  Arrival pending_{};
};

}  // namespace rsfbench
