// Regression guard for the allocation-free inline event path: once the
// kernel's pools are warm, scheduling and draining inline-record events
// must not touch the global heap at all. A refactor that reintroduces a
// per-event allocation (std::function capture, node-based queue, record
// copy-out) fails here immediately rather than as a silent perf cliff.
//
// The counters instrument the global operator new/delete for this test
// binary only. gtest itself allocates freely between the probe windows;
// the assertion covers only the bracketed drain.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

std::size_t g_allocations = 0;
std::size_t g_deallocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept {
  ++g_deallocations;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  ++g_deallocations;
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  ++g_deallocations;
  std::free(p);
}

namespace rsf::sim {
namespace {

// The workload under guard: a self-rescheduling trivially-copyable
// functor (the shape of every per-packet continuation) plus a same-time
// burst wide enough to exercise batch extraction and sorting.
struct SelfReschedule {
  Simulator* sim;
  int* remaining;

  void operator()() {
    if (--*remaining > 0) {
      sim->schedule_at(sim->now() + SimTime::nanoseconds(5), *this);
    }
  }
};
static_assert(is_inline_event_v<SelfReschedule>);

struct CountTick {
  int* counter;
  void operator()() { ++*counter; }
};
static_assert(is_inline_event_v<CountTick>);

void run_workload(Simulator& sim, int chain_events, int burst_width) {
  int remaining = chain_events;
  sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                  SelfReschedule{&sim, &remaining});
  int burst_fired = 0;
  const SimTime burst_at = sim.now() + SimTime::nanoseconds(2);
  for (int i = 0; i < burst_width; ++i) {
    sim.schedule_at(burst_at, CountTick{&burst_fired});
  }
  sim.run_until(SimTime::infinity());
  ASSERT_EQ(remaining, 0);
  ASSERT_EQ(burst_fired, burst_width);
}

TEST(SimAllocGuardTest, DrainingInlineEventsIsAllocationFree) {
  Simulator sim;
  // Warm-up: an identical workload pre-sizes every internal vector —
  // the liveness slot pool, the calendar slab and free list, the batch
  // buffer. Steady state begins here.
  run_workload(sim, 10'000, 64);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  run_workload(sim, 10'000, 64);
  const std::size_t allocs = g_allocations - allocs_before;
  const std::size_t deallocs = g_deallocations - deallocs_before;

  EXPECT_EQ(allocs, 0u) << "inline event drain touched the heap";
  EXPECT_EQ(deallocs, 0u) << "inline event drain freed to the heap";
  EXPECT_EQ(sim.executed(), 2u * (10'000 + 64));
}

TEST(SimAllocGuardTest, CancelOfInlineEventIsAllocationFree) {
  Simulator sim;
  int fired = 0;
  // Warm-up including a cancel so the tombstone path is also sized.
  const EventId warm = sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                                       CountTick{&fired});
  ASSERT_TRUE(sim.cancel(warm));
  run_workload(sim, 1'000, 8);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  const EventId id = sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                                     CountTick{&fired});
  ASSERT_TRUE(sim.cancel(id));
  run_workload(sim, 1'000, 8);
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_EQ(g_deallocations - deallocs_before, 0u);
  EXPECT_EQ(fired, 0);
}

// The far-future path under guard: a chain whose delays cycle through
// the ring, level 2 (10 us, 1 ms) and past it into the heap (6 ms),
// plus a standing set of far events — some cancelled, so re-anchors
// and heap pulls also reclaim tombstones.
struct FarHop {
  Simulator* sim;
  int* remaining;

  void operator()() {
    static constexpr std::int64_t kDelaysNs[] = {50, 10'000, 1'000'000, 6'000'000};
    if (--*remaining > 0) {
      const std::int64_t delay = kDelaysNs[static_cast<std::size_t>(*remaining) % 4];
      sim->schedule_after(SimTime::nanoseconds(static_cast<double>(delay)), *this);
    }
  }
};
static_assert(is_inline_event_v<FarHop>);

void run_far_workload(Simulator& sim, int chain_events, int standing) {
  int remaining = chain_events;
  sim.schedule_after(SimTime::nanoseconds(1), FarHop{&sim, &remaining});
  int standing_fired = 0;
  int cancelled = 0;
  for (int i = 0; i < standing; ++i) {
    const SimTime delay = SimTime::microseconds(7.0 * (i + 1));  // spans both far tiers
    const EventId id = sim.schedule_after(delay, CountTick{&standing_fired});
    if (i % 3 == 0) cancelled += sim.cancel(id) ? 1 : 0;
  }
  sim.run_until(SimTime::infinity());
  ASSERT_EQ(remaining, 0);
  ASSERT_EQ(standing_fired + cancelled, standing);
}

TEST(SimAllocGuardTest, FarFutureScheduleAndReanchorAreAllocationFree) {
  Simulator sim;
  // Warm-up: the identical workload sizes the slab, the slot pool, the
  // heap's key vector and the free lists.
  run_far_workload(sim, 400, 1'000);
  const Simulator::Stats warm = sim.stats();
  ASSERT_GT(warm.reanchors, 0u);
  ASSERT_GT(warm.heap_pushes, 0u);
  ASSERT_GT(warm.tombstones_reclaimed, 0u);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  run_far_workload(sim, 400, 1'000);
  EXPECT_EQ(g_allocations - allocs_before, 0u) << "far-future path touched the heap";
  EXPECT_EQ(g_deallocations - deallocs_before, 0u) << "far-future path freed to the heap";
  // The measured run crossed every tier again.
  EXPECT_GT(sim.stats().reanchors, warm.reanchors);
  EXPECT_GT(sim.stats().heap_pushes, warm.heap_pushes);
  EXPECT_GT(sim.stats().tombstones_reclaimed, warm.tombstones_reclaimed);
}

}  // namespace
}  // namespace rsf::sim
