// rsfbench — per-layer probes.
//
// Each probe times the benchmark's own calls into one module's public
// functions, outside in: on the drained rack a workload leaves behind,
// or on a fresh object of the module when the cost must not depend on
// what the workload left (kernel, spine regimes, slot calendar). Every
// probe runs for a fixed host-time budget and reports host time per
// call, plus the simulator events each call executed so the kernel's
// share can be told apart from the module's own.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/fleet.hpp"
#include "runtime/runtime.hpp"

namespace rsfbench {

struct PerCall {
  double ns = 0;      // host ns per call
  double events = 0;  // simulator events executed per call
  std::uint64_t calls = 0;
};

/// Scheduling delays for the kernel probe.
enum class Delays {
  kNear,      // uniform in (0, 1 us]: inside the calendar window
  kFar,       // uniform in [10 us, 1 ms]: the far-future set
  kMeanOf,    // exponential with a given mean: the workload's own shape
};

/// Hold model on a fresh Simulator: `preload` events pending, every
/// executed event schedules one successor with a delay drawn from
/// `delays` (`mean_us` is used by kMeanOf). Per schedule + drain.
PerCall probe_sched(std::size_t preload, Delays delays, double mean_us, std::uint64_t seed);

/// PhysicalPlant::account_frame of a 1 KB frame, over every live link.
PerCall probe_account_frame(rsf::runtime::FabricRuntime& rt, std::uint64_t seed);

/// Probes from every node to a seeded destination exactly kHopProbeDistance
/// hops away (fewer on a rack too small for it), driven to delivery on
/// the drained rack; per hop. A fixed distance keeps the per-packet
/// share equal across topologies.
inline constexpr int kHopProbeDistance = 4;
PerCall probe_hop(rsf::runtime::FabricRuntime& rt, std::uint64_t seed);

/// Router::next_hop over every (node, destination) pair with warm
/// tables, and right after bump_prices() invalidated them (cold).
PerCall probe_next_hop_warm(rsf::runtime::FabricRuntime& rt);
PerCall probe_next_hop_cold(rsf::runtime::FabricRuntime& rt);

/// Topology::usable over every live link.
PerCall probe_usable(rsf::runtime::FabricRuntime& rt);

enum class SpineRegime { kPacket, kCarve, kSlotted };
/// Interconnect::send_packet plus the drain of its delivery, on a
/// fresh two-rack Interconnect per regime.
PerCall probe_spine_send(SpineRegime regime, std::uint64_t seed);

/// SlotCalendar::propose for a two-hop route on a fresh calendar whose
/// lines are half booked.
PerCall probe_slot_propose();

/// The drained rack run for a fixed number of CRC epochs with only the
/// control loop live; per epoch.
PerCall probe_crc_epoch(rsf::runtime::FabricRuntime& rt);

/// The same for the FleetController. With `fleet == nullptr` a small
/// reference fleet (two 4x4 racks, two spine legs) is built and probed.
PerCall probe_fleet_epoch(rsf::runtime::FleetRuntime* fleet);

}  // namespace rsfbench
