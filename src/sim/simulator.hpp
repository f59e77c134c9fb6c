// rsf::sim — the discrete-event simulation kernel.
//
// A Simulator owns the future-event set and the simulation clock.
// Components schedule closures at absolute or relative times; run()
// drains events in (time, insertion-sequence) order. The kernel is
// single-threaded: determinism is a design requirement because every
// experiment in the benchmark suite must be re-runnable bit-for-bit.
//
// Internally the future-event set is a two-level calendar of
// trivially copyable EventRecords (see event.hpp), all living in one
// grow-only slab (recycled through a free list) and threaded into
// per-bucket singly linked lists by slab index:
//
//  - **Calendar ring.** 1024 buckets of 2^12 ps (~4 ns) cover one
//    ~4.2 µs window starting at base_ps_; scheduling into the window is
//    an index computation and a push onto that bucket's list.
//    Constructing a Simulator allocates nothing, and steady-state
//    scheduling reuses slab slots.
//  - **Level 2.** Events past the window land in a second calendar of
//    1024 window-wide buckets with its own occupancy bitmap: a timing
//    wheel (Varghese & Lauck) indexed by window number mod 1024, so it
//    always covers the 1023 windows after the ring's (~4.3 ms). When
//    the ring empties it re-anchors on the next occupied level-2
//    bucket: the bucket's tombstones are swept, and — only if the
//    kernel commits to running its earliest live event — the whole
//    bucket is relinked into the ring. A far event is placed once and
//    moved once; no record is ever copied.
//  - **Beyond level 2.** Events past level 2's span (epochs,
//    watchdogs) go into a min-heap of {time, slab index} keys. Each
//    committed re-anchor slides level 2's span forward and pulls the
//    heap keys it now covers; when level 2 is empty, the ring anchors
//    straight on the heap's top.
//  - **Liveness slots.** Each pending event claims a dense
//    core::SlotPool slot; its EventId packs {slot+1 in 24 bits,
//    generation in 40}, so cancel() and liveness checks are an index +
//    generation compare — no hashing. Scheduling past 2^24 - 1 pending
//    events throws. Cancelled events leave tombstone records that are
//    reclaimed when the queue next touches their bucket (or heap top).
//  - **Batch drain.** run_*() extracts every record sharing the
//    earliest pending timestamp as one batch, sorts it by insertion
//    sequence, advances the clock once, and fires the batch in order.
//    Handlers scheduling at now() extend the drain with a follow-on
//    batch at the same instant.
//
// Invariants: every ring time < every level-2 time < every heap time,
// and base_ps_ <= now_ wherever a schedule can happen. The second one
// is why a re-anchor commits only when an event will run: a pure peek
// (run_until stopping at its horizon) must not move the window past
// the clock, or a schedule between them would compute a negative
// bucket.
//
// The (time, insertion-sequence) total order is what callers observe;
// bucket layout and batch boundaries are invisible to it. Handlers
// must not re-enter run_until()/run_events().
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/slot_pool.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace rsf::sim {

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule a callable to run at absolute time `when`.
  /// `when` must not precede now(); scheduling in the past is a logic
  /// error and throws. Small trivially copyable callables are stored
  /// inline in the event record (no allocation); anything else takes
  /// the cold EventHandler arm. An empty handler throws.
  template <typename F>
  EventId schedule_at(SimTime when, F&& f) {
    return schedule_arm(when, std::forward<F>(f), /*weak=*/false);
  }

  /// Schedule a callable to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& f) {
    return schedule_arm(now_ + delay, std::forward<F>(f), /*weak=*/false);
  }

  /// Weak events do not keep the simulation alive: run_until() with no
  /// horizon stops once only weak events remain. Periodic background
  /// activities (controller epochs, BER drivers, watchdogs) schedule
  /// weak so "run until the workload drains" terminates naturally.
  template <typename F>
  EventId schedule_weak_at(SimTime when, F&& f) {
    return schedule_arm(when, std::forward<F>(f), /*weak=*/true);
  }
  template <typename F>
  EventId schedule_weak_after(SimTime delay, F&& f) {
    return schedule_arm(now_ + delay, std::forward<F>(f), /*weak=*/true);
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// pending (it will no longer fire); false if it already fired, was
  /// already cancelled, or never existed. Cancellation is O(1): the
  /// liveness slot is recycled and the record becomes a tombstone.
  bool cancel(EventId id);

  /// Run until the event set is empty or `until` is reached (events at
  /// exactly `until` DO fire). Returns the number of events processed.
  std::size_t run_until(SimTime until = SimTime::infinity());

  /// Run at most `max_events` events. Useful to bound runaway loops in
  /// tests. Returns the number processed.
  std::size_t run_events(std::size_t max_events);

  /// True if no live *strong* events remain (weak events do not count).
  [[nodiscard]] bool idle() const { return strong_count_ == 0; }

  /// Number of live pending strong events.
  [[nodiscard]] std::size_t pending() const { return strong_count_; }
  /// Number of live pending weak events.
  [[nodiscard]] std::size_t pending_weak() const { return weak_count_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Far-future bookkeeping counters. Deterministic (they depend only
  /// on the schedule), but deliberately kept out of every metrics
  /// table: they describe the kernel's layout, not the simulation.
  struct Stats {
    /// Times the empty ring re-anchored on a level-2 window.
    std::uint64_t reanchors = 0;
    /// Records relinked from level 2 into the ring, plus records moved
    /// from the heap into level 2.
    std::uint64_t records_migrated = 0;
    /// Cancelled records freed, in any tier.
    std::uint64_t tombstones_reclaimed = 0;
    /// Records scheduled past level 2's span, into the heap.
    std::uint64_t heap_pushes = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Advance the clock with no event processing. Only valid while idle;
  /// used by tests to set up mid-run scenarios.
  void fast_forward_to(SimTime when);

 private:
  friend struct SimulatorTestPeer;

  // Calendar geometry: 1024 buckets of 2^12 ps give a ~4.2 us window,
  // matching the sub-us inter-event gaps of the packet paths. The ring
  // is a flat, window-aligned span [base_ps_, base_ps_ + kWindowPs) —
  // it only re-anchors when empty, so buckets never wrap. Level 2 is
  // the same shape one level up — 1024 buckets of one window each —
  // but circular: it holds the 1023 windows after the ring's.
  static constexpr int kBucketShift = 12;  // 2^12 ps ≈ 4 ns per bucket
  static constexpr std::size_t kBucketCount = 1024;
  static constexpr int kWindowShift = kBucketShift + 10;
  static constexpr std::int64_t kWindowPs = std::int64_t{1} << kWindowShift;
  static constexpr std::int64_t kFarSpanPs =
      static_cast<std::int64_t>(kBucketCount) << kWindowShift;  // ~4.3 ms
  static_assert(kWindowPs == static_cast<std::int64_t>(kBucketCount) << kBucketShift);

  /// One calendar level: bucket heads into the slab's record_next_
  /// chains, plus an occupancy bitmap. For the ring, the next candidate
  /// bucket is the lowest set bit, and scan_word is a lower bound on
  /// the first non-zero word (every word below it is zero): scans
  /// advance it past zeros, inserts pull it back down. Level 2 is
  /// circular and is searched from the bucket after the ring's window.
  struct Calendar {
    std::array<std::uint32_t, kBucketCount> heads;
    std::array<std::uint64_t, kBucketCount / 64> occupied{};
    std::size_t scan_word = 0;

    void reset();
    void link(std::size_t b, std::uint32_t index, std::vector<std::uint32_t>& next) {
      next[index] = heads[b];
      heads[b] = index;
      occupied[b >> 6] |= std::uint64_t{1} << (b & 63);
      if ((b >> 6) < scan_word) scan_word = b >> 6;
    }
    void clear_bit(std::size_t b) { occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63)); }
    /// Lowest occupied bucket; the calendar must hold a record.
    std::size_t first_occupied() {
      std::size_t word = scan_word;
      while (occupied[word] == 0) ++word;
      scan_word = word;
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(occupied[word]));
    }
    /// Visits occupied buckets in circular order from bucket `from`
    /// until `visit` returns true; returns that bucket, or kBucketCount.
    template <typename Visit>
    std::size_t find_from(std::size_t from, Visit&& visit) const {
      constexpr std::size_t kWords = kBucketCount / 64;
      const std::uint64_t below = (std::uint64_t{1} << (from & 63)) - 1;
      for (std::size_t i = 0; i <= kWords; ++i) {
        const std::size_t word = ((from >> 6) + i) % kWords;
        std::uint64_t bits = occupied[word];
        if (i == 0) bits &= ~below;
        if (i == kWords) bits &= below;
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t b = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
          if (visit(b)) return b;
        }
      }
      return kBucketCount;
    }
  };
  /// Level-2 bucket of a far time: its window number mod 1024.
  static std::size_t far_bucket(std::int64_t time_ps) {
    return static_cast<std::size_t>(time_ps >> kWindowShift) & (kBucketCount - 1);
  }
  static std::int64_t window_of(std::int64_t time_ps) {
    return (time_ps >> kWindowShift) << kWindowShift;
  }

  /// A heap entry for an event past level 2. The record stays in the
  /// slab; the key carries its time so heap moves never touch it.
  struct FarKey {
    std::int64_t time_ps;
    std::uint32_t index;
  };

  /// A liveness slot's payload: one byte, so the drain path's lookup
  /// of a random slot stays cache-resident at 100k pending events.
  struct EventSlot {
    bool weak = false;
  };

  template <typename F>
  EventId schedule_arm(SimTime when, F&& f, bool weak) {
    using Fn = std::decay_t<F>;
    if constexpr (is_inline_event_v<Fn>) {
      if constexpr (std::is_convertible_v<const Fn&, bool>) {
        if (!static_cast<bool>(f)) throw_empty_handler();
      }
      // The record is built in its final storage: acquire writes the
      // header, the payload is placement-new'd directly into the slab.
      EventRecord& rec = acquire_record(when, weak);
      ::new (static_cast<void*>(rec.payload)) Fn(std::forward<F>(f));
      rec.invoke = [](void* payload) {
        // Copy out before running: the trampoline knows sizeof(Fn), so
        // it copies just the functor (not the whole payload), and the
        // handler may then schedule, growing or reusing the slab
        // behind `payload`.
        Fn fn = *std::launder(reinterpret_cast<Fn*>(payload));
        fn();
      };
      return rec.id;
    } else {
      return schedule_cold(when, EventHandler(std::forward<F>(f)), weak);
    }
  }

  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;

  // Defined below the class: the whole schedule fast path is in the
  // header so every call site inlines it — scheduling an event must
  // not cost a cross-TU call.
  EventId schedule_cold(SimTime when, EventHandler handler, bool weak);
  EventRecord& acquire_record(SimTime when, bool weak);
  void place(std::uint32_t index, std::int64_t time_ps);
  void place_beyond_far(std::uint32_t index, std::int64_t time_ps);
  [[noreturn]] static void throw_empty_handler();
  [[noreturn]] void throw_past_time(SimTime when) const;
  [[noreturn]] static void throw_slot_limit();

  bool next_batch(SimTime until);
  bool reanchor(SimTime until);
  bool anchor_on_heap(SimTime until);
  void pull_from_heap();
  std::size_t drain_one();
  void reclaim_tombstone(std::uint32_t index) {
    free_record_index(index);
    ++stats_.tombstones_reclaimed;
  }

  /// Record-slab free list with its top element in record_spare_:
  /// one-deep churn (the schedule/drain cycle of chained events) stays
  /// out of the vector. LIFO reuse order is unchanged.
  std::uint32_t claim_record_index() {
    std::uint32_t index;
    if (record_spare_ != kNilIndex) {
      index = record_spare_;
      record_spare_ = kNilIndex;
    } else if (!record_free_.empty()) {
      index = record_free_.back();
      record_free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(records_.size());
      records_.emplace_back();
      record_next_.emplace_back();
    }
    return index;
  }
  void free_record_index(std::uint32_t index) {
    if (record_spare_ != kNilIndex) record_free_.push_back(record_spare_);
    record_spare_ = index;
  }

  static EventId encode_id(std::uint32_t slot, std::uint64_t generation) {
    return (static_cast<EventId>(slot) + 1) << kEventGenerationBits |
           (generation & kEventGenerationMask);
  }
  /// Liveness of an id minted by this kernel (records and cancel()).
  /// The pool's generation counter is 64-bit; ids carry its low 40
  /// bits, so the comparison wraps at 2^40 exactly as the id does.
  [[nodiscard]] bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_.live(slot) &&
           (slots_.generation(slot) & kEventGenerationMask) == (id & kEventGenerationMask);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id >> kEventGenerationBits) - 1);
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t strong_count_ = 0;
  std::size_t weak_count_ = 0;

  // Liveness slots for pending events. Slots recycle, so steady-state
  // scheduling never allocates.
  core::SlotPool<EventSlot, std::uint64_t> slots_;
  // A cold-arm event's handler, indexed by its slot (sized on demand by
  // the cold path only). The handler dies with the event — fire moves
  // it out, cancel destroys it — so tombstone records never own
  // anything.
  std::vector<EventHandler> cold_;

  // The record slab: every pending record lives here, threaded into
  // per-bucket singly linked lists (ring and level 2) via record_next_.
  // Freed indices recycle LIFO.
  std::vector<EventRecord> records_;
  std::vector<std::uint32_t> record_next_;
  std::vector<std::uint32_t> record_free_;
  std::uint32_t record_spare_ = kNilIndex;  // top of the record free stack
  Calendar ring_;
  Calendar far_;
  // Min-heap on time_ps of every record past level 2's span.
  std::vector<FarKey> far_heap_;
  std::int64_t base_ps_ = 0;    // ring window origin, window-aligned
  std::size_t ring_count_ = 0;  // records (live + tombstone) in the ring
  std::size_t far_count_ = 0;   // records (live + tombstone) in level 2
  Stats stats_;
  // When ring_count_ == 1, the slab index of that one record (else
  // kNilIndex). Chained workloads — one pending event at a time —
  // spend their whole life in this state, and next_batch() then skips
  // the bitmap scan and bucket walk outright.
  std::uint32_t sole_ring_index_ = kNilIndex;

  // The batch being drained: slab indices of all records at
  // batch_time_, in insertion order. Persists across run_*() calls so
  // a run that stops mid-batch (event budget, weak-only break) resumes
  // exactly where it left off.
  std::vector<std::uint32_t> batch_;
  std::size_t batch_cursor_ = 0;
  SimTime batch_time_ = SimTime::zero();
};

inline EventRecord& Simulator::acquire_record(SimTime when, bool weak) {
  if (when < now_) throw_past_time(when);
  const auto slot = slots_.claim();
  if (slot.index >= kMaxPendingEvents) [[unlikely]] {
    slots_.recycle(slot.index);
    throw_slot_limit();
  }
  slots_[slot.index].weak = weak;
  ++(weak ? weak_count_ : strong_count_);
  const std::uint32_t index = claim_record_index();
  place(index, when.ps());
  EventRecord& rec = records_[index];
  rec.time = when;
  rec.seq = next_seq_++;
  rec.id = encode_id(slot.index, slot.generation);
  return rec;
}

// Links a slab record into the tier its time falls in. Ring and
// level-2 placement are inline; the heap is out of line.
inline void Simulator::place(std::uint32_t index, std::int64_t time_ps) {
  const std::int64_t rel = time_ps - base_ps_;
  if (rel < kWindowPs) [[likely]] {
    ring_.link(static_cast<std::size_t>(rel >> kBucketShift), index, record_next_);
    sole_ring_index_ = ring_count_ == 0 ? index : kNilIndex;
    ++ring_count_;
  } else if (rel < kFarSpanPs) {
    far_.link(far_bucket(time_ps), index, record_next_);
    ++far_count_;
  } else {
    place_beyond_far(index, time_ps);
  }
}

inline EventId Simulator::schedule_cold(SimTime when, EventHandler handler, bool weak) {
  if (!handler) throw_empty_handler();
  EventRecord& rec = acquire_record(when, weak);
  // The slot's handler is empty (fire and cancel both empty it), so a
  // swap is a plain member exchange — no construct-and-swap temporary.
  const std::uint32_t slot = slot_of(rec.id);
  if (slot >= cold_.size()) cold_.resize(std::size_t{slot} + 1);
  cold_[slot].swap(handler);
  rec.invoke = nullptr;
  return rec.id;
}

}  // namespace rsf::sim
