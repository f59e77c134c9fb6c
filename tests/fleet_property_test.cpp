// Property sweep: the determinism contract at fleet scope, stated as
// a property over seeds rather than a hand-picked scenario. For every
// seed, two runs of the same config must produce byte-identical
// metrics tables — same packets, same retries, same controller
// decisions, same counter values — across both scenario families with
// the most ordering hazards: the chaos timeline (correlated failures,
// flaps, loss, carve policy) and the slotted transport (calendar
// bookings, expiry, multipath splits, weak flap events). The ctest
// label `property` runs this suite on its own CI leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "phy/units.hpp"
#include "runtime/fleet.hpp"
#include "workload/chaos.hpp"
#include "workload/slotted.hpp"

namespace rsf {
namespace {

constexpr std::uint64_t kSeeds = 16;

TEST(FleetPropertySweep, ChaosRunsAreByteIdenticalSameSeedTwice) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto run = [seed](int attempt) {
      workload::ChaosScenarioConfig cfg;
      cfg.seed = seed;
      cfg.loss_prob = 0.01;
      cfg.hot_bytes = phy::DataSize::kilobytes(48);
      cfg.random.enable = true;
      cfg.random.cuts = 2;
      cfg.random.flap_cycles = 1;
      workload::ChaosScenario scenario(cfg);
      const workload::ChaosScenarioResult r = scenario.run();
      // Every run must hold the invariant pair on its own before the
      // run-to-run diff means anything.
      EXPECT_TRUE(r.conservation_ok) << "seed " << seed << " run " << attempt;
      EXPECT_TRUE(r.completed_before_horizon) << "seed " << seed << " run " << attempt;
      return scenario.fleet().metrics_table().to_string();
    };
    EXPECT_EQ(run(1), run(2)) << "chaos seed " << seed;
  }
}

TEST(FleetPropertySweep, SlottedRunsAreByteIdenticalSameSeedTwice) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // Cycle the arms so the sweep covers steady slots, per-wave
    // expiry/re-promotion, and weak-event flap preemption.
    const auto arm = static_cast<workload::SlottedArm>(seed % 3);
    auto run = [seed, arm](int attempt) {
      workload::SlottedScenarioConfig cfg;
      cfg.arm = arm;
      cfg.regime = workload::SlottedRegime::kSlotted;
      cfg.loss_prob = 0.005;
      cfg.seed = seed;
      cfg.hot_bytes = phy::DataSize::kilobytes(48);
      workload::SlottedFleetScenario scenario(cfg);
      const workload::SlottedScenarioResult r = scenario.run();
      EXPECT_GT(r.slot_reservations, 0u) << "seed " << seed << " run " << attempt;
      return scenario.fleet().metrics_table().to_string();
    };
    EXPECT_EQ(run(1), run(2)) << "slotted seed " << seed;
  }
}

}  // namespace
}  // namespace rsf
