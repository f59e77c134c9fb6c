#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rsf::sim {

/// Test seam: forces a liveness slot's generation counter so the
/// EventId generation wrap is coverable without 2^40 schedule/cancel
/// cycles per slot, and exposes the calendar edges so tests can aim
/// events exactly at them.
struct SimulatorTestPeer {
  static void set_slot_generation(Simulator& sim, std::uint32_t slot,
                                  std::uint64_t generation) {
    sim.slots_.set_generation_for_test(slot, generation);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id >> kEventGenerationBits) - 1);
  }
  static std::uint64_t generation_of(EventId id) { return id & kEventGenerationMask; }
  static constexpr std::int64_t kWindowPs = Simulator::kWindowPs;
  /// First time past the ring window / past level 2's span.
  static std::int64_t ring_end_ps(const Simulator& sim) {
    return sim.base_ps_ + Simulator::kWindowPs;
  }
  static std::int64_t far_end_ps(const Simulator& sim) {
    return sim.base_ps_ + Simulator::kFarSpanPs;
  }
};

namespace {

using namespace rsf::sim::literals;

TEST(Simulator, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsSingleEventAtItsTime) {
  Simulator sim;
  SimTime fired_at = SimTime::zero();
  sim.schedule_at(10_ns, [&] { fired_at = sim.now(); });
  EXPECT_EQ(sim.run_until(), 1u);
  EXPECT_EQ(fired_at, 10_ns);
  EXPECT_EQ(sim.now(), 10_ns);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime inner_fired = SimTime::zero();
  sim.schedule_at(10_ns, [&] {
    sim.schedule_after(5_ns, [&] { inner_fired = sim.now(); });
  });
  sim.run_until();
  EXPECT_EQ(inner_fired, 15_ns);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run_until();
  EXPECT_THROW(sim.schedule_at(5_ns, [] {}), std::logic_error);
}

TEST(Simulator, EmptyHandlerThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_ns, EventHandler{}), std::invalid_argument);
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(50_ns), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10_ns);  // clock stays at last event, horizon not reached by idle
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(100_ns), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(50_ns, [&] { ++fired; });
  sim.run_until(50_ns);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonWhenIdle) {
  Simulator sim;
  sim.run_until(1_us);
  EXPECT_EQ(sim.now(), 1_us);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(10_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ns, [] {});
  sim.run_until();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, CancelledEventsDontBlockHorizon) {
  Simulator sim;
  int fired = 0;
  const EventId early = sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  sim.cancel(early);
  // Horizon between the tombstone and the live event: nothing fires.
  EXPECT_EQ(sim.run_until(50_ns), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunEventsBoundsExecution) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(SimTime::nanoseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_events(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending(), 2u);
}

TEST(Simulator, SelfReschedulingEventTerminatesWithHorizon) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(10_ns, tick);
  };
  sim.schedule_at(SimTime::zero(), tick);
  sim.run_until(95_ns);
  EXPECT_EQ(count, 10);  // t = 0,10,...,90
}

TEST(Simulator, ExecutedCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime::nanoseconds(i + 1), [] {});
  sim.run_until();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, FastForwardRequiresIdle) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  EXPECT_THROW(sim.fast_forward_to(1_us), std::logic_error);
  sim.run_until();
  sim.fast_forward_to(1_us);
  EXPECT_EQ(sim.now(), 1_us);
  EXPECT_THROW(sim.fast_forward_to(1_ns), std::logic_error);
}

TEST(Simulator, HandlerSchedulingAtCurrentInstantRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(10_ns, [&] { sim.schedule_at(sim.now(), [&] { ran = true; }); });
  sim.run_until();
  EXPECT_TRUE(ran);
}

TEST(Simulator, WeakEventsDoNotKeepSimulationAlive) {
  Simulator sim;
  int weak_fired = 0;
  // A self-rescheduling weak ticker (like a controller epoch).
  std::function<void()> tick = [&] {
    ++weak_fired;
    sim.schedule_weak_after(10_ns, tick);
  };
  sim.schedule_weak_at(0_ns, tick);
  int strong_fired = 0;
  sim.schedule_at(35_ns, [&] { ++strong_fired; });
  // Unbounded run terminates once only the ticker remains; the ticker
  // ran while the strong event kept the simulation alive.
  sim.run_until();
  EXPECT_EQ(strong_fired, 1);
  EXPECT_EQ(weak_fired, 4);  // t = 0, 10, 20, 30
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_weak(), 1u);  // next tick still queued
}

TEST(Simulator, WeakEventsRunUnderFiniteHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_weak_at(10_ns, [&] { ++fired; });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ns);
}

TEST(Simulator, OnlyWeakEventsMeansImmediateReturn) {
  Simulator sim;
  int fired = 0;
  sim.schedule_weak_at(10_ns, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelWeakEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_weak_at(10_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run_until(1_us);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, WeakAndStrongInterleaveInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_weak_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.schedule_weak_at(15_ns, [&] { order.push_back(3); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, FastForwardBlockedByWeakEvents) {
  Simulator sim;
  sim.schedule_weak_at(10_ns, [] {});
  // Jumping past a queued weak event would let it fire "in the past".
  EXPECT_THROW(sim.fast_forward_to(1_us), std::logic_error);
}

TEST(Simulator, ManyEventsStaySorted) {
  Simulator sim;
  SimTime last = SimTime::zero();
  bool monotonic = true;
  // Deliberately adversarial insertion order.
  for (int i = 999; i >= 0; --i) {
    sim.schedule_at(SimTime::nanoseconds((i * 7919) % 1000 + 1), [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  EXPECT_EQ(sim.run_until(), 1000u);
  EXPECT_TRUE(monotonic);
}

// A handler that schedules more work at the *same* timestamp extends
// the drain with a follow-on batch at that instant: the new events run
// after everything already pending there, still in insertion order.
TEST(Simulator, SameTimestampFifoAcrossBatchBoundaries) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5_ns, [&] {
    order.push_back(0);
    // Scheduled mid-batch for the batch's own timestamp: these form a
    // second batch at 5 ns and must fire after tags 1 and 2.
    sim.schedule_at(5_ns, [&] { order.push_back(3); });
    sim.schedule_at(5_ns, [&] {
      order.push_back(4);
      // And a third batch, from inside the second.
      sim.schedule_at(5_ns, [&] { order.push_back(5); });
    });
  });
  sim.schedule_at(5_ns, [&] { order.push_back(1); });
  sim.schedule_at(5_ns, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_until(), 6u);
  EXPECT_EQ(sim.now(), 5_ns);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Cancelling a later member of the batch being drained must take
// effect even though the victim was already extracted from the queue.
TEST(Simulator, CancelDuringBatchSuppressesLaterMember) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = kInvalidEventId;
  sim.schedule_at(5_ns, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.cancel(victim));
  });
  sim.schedule_at(5_ns, [&] { order.push_back(1); });
  victim = sim.schedule_at(5_ns, [&] { order.push_back(2); });
  sim.schedule_at(5_ns, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.executed(), 3u);  // the cancelled member never counts
}

// A handler cancelling its own id observes false: the slot was
// recycled before invocation.
TEST(Simulator, HandlerCancellingItselfSeesFalse) {
  Simulator sim;
  EventId self = kInvalidEventId;
  bool self_cancel = true;
  self = sim.schedule_at(5_ns, [&] { self_cancel = sim.cancel(self); });
  sim.run_until();
  EXPECT_FALSE(self_cancel);
}

// Generation wrap: ids carry the low 40 bits of a slot's generation,
// so the old 32-bit boundary is an ordinary increment and the wrap
// sits at 2^40. A slot wrapping there keeps minting ids that stale
// correctly — an id from before the wrap can never cancel the slot's
// post-wrap occupant.
TEST(Simulator, GenerationWrapKeepsStaleIdsStale) {
  static_assert(kEventGenerationBits == 40 && kEventSlotBits == 24);
  static_assert(kMaxPendingEvents == (1u << 24) - 1);
  Simulator sim;
  // Claim and release once so slot 0 exists.
  const EventId warm = sim.schedule_at(1_ns, [] {});
  const std::uint32_t slot = SimulatorTestPeer::slot_of(warm);
  ASSERT_EQ(slot, 0u);
  EXPECT_EQ(warm, EventId{1} << kEventGenerationBits);  // {slot+1 = 1, generation 0}
  EXPECT_TRUE(sim.cancel(warm));

  // 2^32 - 1 → 2^32 no longer wraps: the next id is generation 2^32,
  // not 0, so it cannot collide with `warm`.
  SimulatorTestPeer::set_slot_generation(sim, slot, 0xFFFFFFFFu);
  const EventId below_2_32 = sim.schedule_at(1_ns, [] {});
  EXPECT_EQ(SimulatorTestPeer::generation_of(below_2_32), 0xFFFFFFFFu);
  EXPECT_TRUE(sim.cancel(below_2_32));
  const EventId at_2_32 = sim.schedule_at(1_ns, [] {});
  ASSERT_EQ(SimulatorTestPeer::slot_of(at_2_32), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(at_2_32), std::uint64_t{1} << 32);
  EXPECT_FALSE(sim.cancel(warm));
  EXPECT_FALSE(sim.cancel(below_2_32));
  EXPECT_TRUE(sim.cancel(at_2_32));

  // Pin the slot to the 40-bit wrap boundary. The LIFO free list hands
  // the same slot back at the pinned generation.
  SimulatorTestPeer::set_slot_generation(sim, slot, kEventGenerationMask);
  const EventId pre_wrap = sim.schedule_at(1_ns, [] {});
  ASSERT_EQ(SimulatorTestPeer::slot_of(pre_wrap), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(pre_wrap), kEventGenerationMask);
  EXPECT_TRUE(sim.cancel(pre_wrap));  // recycle wraps the id's generation to 0

  // One more claim/cancel moves the slot to generation 1: `warm` was
  // minted at generation 0, and an exact generation collision after a
  // full wrap is the one alias the scheme cannot catch (documented in
  // SlotPool) — the occupant under test must sit at a fresh generation.
  const EventId mid = sim.schedule_at(1_ns, [] {});
  ASSERT_EQ(SimulatorTestPeer::slot_of(mid), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(mid), 0u);
  EXPECT_TRUE(sim.cancel(mid));

  bool fired = false;
  const EventId post_wrap = sim.schedule_at(1_ns, [&] { fired = true; });
  ASSERT_EQ(SimulatorTestPeer::slot_of(post_wrap), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(post_wrap), 1u);

  // Every pre-wrap id is stale; none may touch the new occupant.
  EXPECT_FALSE(sim.cancel(pre_wrap));
  EXPECT_FALSE(sim.cancel(warm));
  EXPECT_FALSE(sim.cancel(mid));
  EXPECT_FALSE(sim.cancel(at_2_32));
  EXPECT_EQ(sim.run_until(), 1u);
  EXPECT_TRUE(fired);
}

// Events beyond the calendar window land in level 2 (or the heap past
// it) and migrate into the ring when the window re-anchors onto them;
// their order and times are unaffected.
TEST(Simulator, FarFutureEventsMigrateFromOverflow) {
  Simulator sim;
  std::vector<int> order;
  std::vector<SimTime> at;
  // Far beyond the ~4.2 us window, deliberately out of order, with a
  // same-time pair to check seq ordering survives migration.
  sim.schedule_at(SimTime::milliseconds(2), [&] {
    order.push_back(3);
    at.push_back(sim.now());
  });
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    order.push_back(1);
    at.push_back(sim.now());
  });
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    order.push_back(2);
    at.push_back(sim.now());
  });
  sim.schedule_at(10_ns, [&] {
    order.push_back(0);
    at.push_back(sim.now());
  });
  EXPECT_EQ(sim.run_until(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(at[0], 10_ns);
  EXPECT_EQ(at[1], SimTime::milliseconds(1));
  EXPECT_EQ(at[2], SimTime::milliseconds(1));
  EXPECT_EQ(at[3], SimTime::milliseconds(2));
}

// A cancelled far-future event is a tombstone in the heap: it neither
// fires nor blocks the idle horizon.
TEST(Simulator, CancelledOverflowEventLeavesNoTrace) {
  Simulator sim;
  bool fired = false;
  const EventId id =
      sim.schedule_at(SimTime::milliseconds(5), [&] { fired = true; });
  bool near_fired = false;
  sim.schedule_at(10_ns, [&] { near_fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.run_until(SimTime::milliseconds(10)), 1u);
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(10));
}

// A handler that runs right after a re-anchor and schedules around the
// re-anchored ring's end: the last ring bucket, exactly the ring's end
// (the first level-2 slot, twice — seq must order them), and one window
// further. Everything fires in (time, seq) order at its own time.
TEST(Simulator, SchedulingJustPastTheRingAfterReanchorFiresInOrder) {
  constexpr std::int64_t kWindow = SimulatorTestPeer::kWindowPs;
  Simulator sim;
  std::vector<std::pair<int, std::int64_t>> fired;
  const auto tag = [&fired, &sim](int t) {
    return [&fired, &sim, t] { fired.emplace_back(t, sim.now().ps()); };
  };
  const std::int64_t anchor = 3 * kWindow + 1000;  // level 2, bucket 3
  const std::int64_t edge = 4 * kWindow;           // the re-anchored ring's end
  sim.schedule_at(SimTime::picoseconds(anchor), [&] {
    fired.emplace_back(0, sim.now().ps());
    EXPECT_EQ(SimulatorTestPeer::ring_end_ps(sim), edge);
    sim.schedule_at(SimTime::picoseconds(edge), tag(3));
    sim.schedule_at(SimTime::picoseconds(edge - 1), tag(2));
    sim.schedule_at(SimTime::picoseconds(edge), tag(4));
    sim.schedule_at(SimTime::picoseconds(anchor + 1), tag(1));
    sim.schedule_at(SimTime::picoseconds(edge + kWindow), tag(5));
  });
  EXPECT_EQ(sim.run_until(), 6u);
  const std::vector<std::pair<int, std::int64_t>> expected = {
      {0, anchor}, {1, anchor + 1}, {2, edge - 1}, {3, edge}, {4, edge}, {5, edge + kWindow}};
  EXPECT_EQ(fired, expected);
  // Buckets 3, 4 and 5 of level 2 each anchored the ring once.
  EXPECT_EQ(sim.stats().reanchors, 3u);
  EXPECT_EQ(sim.stats().heap_pushes, 0u);
}

// The kernel's far-future counters, pinned on a fixed schedule that
// touches every tier: a level-2 bucket with two live records, a
// tombstone-only level-2 bucket, a live heap key, and a tombstone on
// top of the heap.
TEST(Simulator, StatsCountReanchorsMigrationsTombstonesAndHeapPushes) {
  Simulator sim;
  int fired = 0;
  const auto count = [&fired] { ++fired; };
  sim.schedule_at(10_ns, count);                            // ring
  sim.schedule_at(5_us, count);                             // level 2, bucket 1
  sim.schedule_at(6_us, count);                             // level 2, bucket 1
  const EventId l2_victim = sim.schedule_at(20_us, count);  // level 2, bucket 4
  sim.schedule_at(SimTime::milliseconds(10), count);        // heap (past ~4.3 ms)
  const EventId heap_victim = sim.schedule_at(SimTime::milliseconds(20), count);
  sim.schedule_at(SimTime::milliseconds(30), count);
  EXPECT_TRUE(sim.cancel(l2_victim));
  EXPECT_TRUE(sim.cancel(heap_victim));
  EXPECT_EQ(sim.stats().heap_pushes, 3u);
  EXPECT_EQ(sim.stats().reanchors, 0u);

  EXPECT_EQ(sim.run_until(), 5u);
  EXPECT_EQ(fired, 5);
  const Simulator::Stats& st = sim.stats();
  // Bucket 1 (2 records), then the 10 ms and 30 ms keys, each pulled
  // off the heap straight into the ring it anchors.
  EXPECT_EQ(st.reanchors, 3u);
  EXPECT_EQ(st.records_migrated, 2u + 1u + 1u);
  // The tombstone-only bucket 4, and the 20 ms tombstone on the heap's
  // top when the 30 ms refill pops it.
  EXPECT_EQ(st.tombstones_reclaimed, 2u);
  EXPECT_EQ(st.heap_pushes, 3u);
}

// Randomized oracle: the calendar kernel against a straightforward
// sorted-reference kernel, over a seeded op mix of schedules (near,
// far, duplicate-time, weak), cancels (live and stale), and bounded
// runs. Execution order, cancel results, clocks, and the executed
// counter must agree exactly.
TEST(Simulator, RandomizedOracleAgainstSortedReference) {
  struct RefEvent {
    std::int64_t time_ps;
    std::uint64_t seq;
    int tag;
    bool weak;
    bool alive;
  };
  struct RefKernel {
    std::vector<RefEvent> events;
    std::int64_t now_ps = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;

    std::size_t schedule(std::int64_t t, int tag, bool weak) {
      events.push_back(RefEvent{t, next_seq++, tag, weak, true});
      return events.size() - 1;
    }
    bool cancel(std::size_t ref_id) {
      if (!events[ref_id].alive) return false;
      events[ref_id].alive = false;
      return true;
    }
    bool strong_pending() const {
      return std::any_of(events.begin(), events.end(),
                         [](const RefEvent& e) { return e.alive && !e.weak; });
    }
    void run_until(std::int64_t until_ps, std::vector<int>& fired) {
      for (;;) {
        const RefEvent* best = nullptr;
        for (const RefEvent& e : events) {
          if (!e.alive || e.time_ps > until_ps) continue;
          if (best == nullptr || e.time_ps < best->time_ps ||
              (e.time_ps == best->time_ps && e.seq < best->seq)) {
            best = &e;
          }
        }
        if (best == nullptr) break;
        RefEvent& e = events[static_cast<std::size_t>(best - events.data())];
        now_ps = e.time_ps;
        e.alive = false;
        ++executed;
        fired.push_back(e.tag);
      }
      if (!strong_pending() && now_ps < until_ps) now_ps = until_ps;
    }
  };

  // Delays that reach every tier: same instant, inside the ring,
  // across it, deep into level 2 (1 ms, 4.2 ms — just inside the
  // ~4.3 ms span past the ring's window), and past it into the heap.
  static constexpr std::int64_t kDelaysPs[] = {
      0,        100,        4096,       50000,      10000000,
      60000000, 1000000000, 4200000000, 5000000000, 50000000000};
  // Horizons that stop inside the ring, between tiers, and past them.
  static constexpr std::int64_t kHorizonsPs[] = {
      0, 1000000, 20000000, 1000000000, 4300000000, 6000000000, 60000000000};

  int next_tag = 0;
  std::uint64_t heap_pushes = 0;
  std::uint64_t tombstones = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Simulator sim;
    RefKernel ref;
    std::vector<int> sim_fired;
    std::vector<int> ref_fired;
    std::vector<std::pair<EventId, std::size_t>> ids;  // (sim id, ref id)

    std::uint64_t rng = 0x9E3779B97F4A7C15ull * seed;
    const auto rand_u32 = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<std::uint32_t>(rng >> 32);
    };
    // An exact calendar edge at or after now — the ring's end, a
    // level-2 bucket edge a few windows out, or level 2's horizon —
    // or one picosecond either side of it.
    const auto edge_time = [&]() -> std::int64_t {
      const std::int64_t now = sim.now().ps();
      constexpr std::int64_t kWindow = SimulatorTestPeer::kWindowPs;
      std::int64_t edge = 0;
      switch (rand_u32() % 3) {
        case 0:
          edge = SimulatorTestPeer::ring_end_ps(sim);
          break;
        case 1:
          edge = (now / kWindow + 1 + rand_u32() % 4) * kWindow;
          break;
        default:
          edge = SimulatorTestPeer::far_end_ps(sim);
          break;
      }
      edge += static_cast<std::int64_t>(rand_u32() % 3) - 1;
      return std::max(edge, now);
    };
    const auto schedule = [&](std::int64_t t, bool weak) {
      const int tag = next_tag++;
      const SimTime when = SimTime::picoseconds(t);
      const auto fire = [&sim_fired, tag] { sim_fired.push_back(tag); };
      const EventId id = weak ? sim.schedule_weak_at(when, fire) : sim.schedule_at(when, fire);
      ids.emplace_back(id, ref.schedule(t, tag, weak));
    };
    // The live strong and weak counts must match the reference's after
    // every op: cancels, tombstone sweeps and re-anchors neither lose
    // nor resurrect an event.
    const auto check_pending = [&](int round) {
      std::size_t strong = 0;
      std::size_t weak = 0;
      for (const RefEvent& e : ref.events) {
        if (e.alive) ++(e.weak ? weak : strong);
      }
      ASSERT_EQ(sim.pending(), strong) << "seed " << seed << " round " << round;
      ASSERT_EQ(sim.pending_weak(), weak) << "seed " << seed << " round " << round;
    };

    for (int round = 0; round < 1500; ++round) {
      const std::uint32_t op = rand_u32() % 20;
      if (op < 9) {
        const std::int64_t delay = kDelaysPs[rand_u32() % std::size(kDelaysPs)];
        schedule(sim.now().ps() + delay, rand_u32() % 4 == 0);
      } else if (op < 11) {
        schedule(edge_time(), rand_u32() % 4 == 0);
      } else if (op < 13) {
        // Cancel-heavy far mix: a far event cancelled at once is a
        // tombstone that may top the heap or be the only record of its
        // level-2 bucket.
        schedule(sim.now().ps() + kDelaysPs[6 + rand_u32() % 4], false);
        EXPECT_EQ(sim.cancel(ids.back().first), ref.cancel(ids.back().second));
      } else if (op < 16 && !ids.empty()) {
        // Cancel a random id — may be live, fired, or already cancelled.
        const auto& [sim_id, ref_id] = ids[rand_u32() % ids.size()];
        EXPECT_EQ(sim.cancel(sim_id), ref.cancel(ref_id));
      } else {
        std::int64_t until = sim.now().ps();
        if (rand_u32() % 4 == 0) {
          until = edge_time();
        } else {
          const std::int64_t span = kHorizonsPs[rand_u32() % std::size(kHorizonsPs)];
          if (span != 0) until += span / 2 + static_cast<std::int64_t>(rand_u32()) % span;
        }
        sim.run_until(SimTime::picoseconds(until));
        ref.run_until(until, ref_fired);
        ASSERT_EQ(sim.now().ps(), ref.now_ps) << "seed " << seed << " round " << round;
        ASSERT_EQ(sim_fired, ref_fired) << "seed " << seed << " round " << round;
      }
      check_pending(round);
      if (HasFatalFailure()) return;
    }
    sim.run_until(sim.now() + SimTime::seconds(1));
    ref.run_until(sim.now().ps(), ref_fired);
    EXPECT_EQ(sim_fired, ref_fired);
    EXPECT_EQ(sim.executed(), ref.executed);
    EXPECT_EQ(sim.pending(), 0u);
    heap_pushes += sim.stats().heap_pushes;
    tombstones += sim.stats().tombstones_reclaimed;
  }
  // The mix really reached the far tiers.
  EXPECT_GT(heap_pushes, 0u);
  EXPECT_GT(tombstones, 0u);
}

}  // namespace
}  // namespace rsf::sim
