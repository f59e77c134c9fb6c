#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rsf::sim {

void Simulator::Calendar::reset() {
  heads.fill(kNilIndex);
  occupied.fill(0);
  scan_word = 0;
}

Simulator::Simulator() {
  ring_.reset();
  far_.reset();
  batch_.reserve(16);
}

void Simulator::throw_empty_handler() {
  throw std::invalid_argument("Simulator::schedule_at: empty handler");
}

void Simulator::throw_past_time(SimTime when) const {
  throw std::logic_error("Simulator::schedule_at: time " + when.to_string() +
                         " precedes now " + now_.to_string());
}

void Simulator::throw_slot_limit() {
  throw std::length_error("Simulator::schedule_at: more than " +
                          std::to_string(kMaxPendingEvents) +
                          " events pending (the EventId slot field is full)");
}

namespace {
// Min-heap order on time alone: a pull moves every key below a horizon
// at once, and batches are seq-sorted, so ties need no order.
struct LaterKey {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    return a.time_ps > b.time_ps;
  }
};
}  // namespace

void Simulator::place_beyond_far(std::uint32_t index, std::int64_t time_ps) {
  const std::int64_t now_window = window_of(now_.ps());
  if (ring_count_ == 0 && far_count_ == 0 && far_heap_.empty() &&
      time_ps - now_window < kFarSpanPs) {
    // Nothing is queued, so the ring may re-base on the clock's window
    // (its base goes stale over an idle stretch) without reordering
    // anything; the record then fits the ring or level 2.
    base_ps_ = now_window;
    place(index, time_ps);
    return;
  }
  far_heap_.push_back(FarKey{time_ps, index});
  std::push_heap(far_heap_.begin(), far_heap_.end(), LaterKey{});
  ++stats_.heap_pushes;
}

bool Simulator::cancel(EventId id) {
  if (!is_live(id)) return false;
  const std::uint32_t index = slot_of(id);
  --(slots_[index].weak ? weak_count_ : strong_count_);
  if (index < cold_.size()) cold_[index] = nullptr;
  slots_.recycle(index);
  return true;
}

bool Simulator::next_batch(SimTime until) {
  for (;;) {
    if (ring_count_ == 0 && !reanchor(until)) return false;
    // Sole-record fast path: with exactly one record in the ring it is
    // the earliest by definition and the head (and only node) of its
    // bucket — no scan, no walk.
    if (sole_ring_index_ != kNilIndex) {
      const std::uint32_t index = sole_ring_index_;
      sole_ring_index_ = kNilIndex;
      const EventRecord& rec = records_[index];
      const auto b =
          static_cast<std::size_t>((rec.time.ps() - base_ps_) >> kBucketShift);
      if (!is_live(rec.id)) {
        // A tombstone: reclaim it here and fall back around the loop.
        ring_.heads[b] = kNilIndex;
        ring_.clear_bit(b);
        reclaim_tombstone(index);
        ring_count_ = 0;
        continue;
      }
      if (rec.time > until) {
        sole_ring_index_ = index;  // still pending; keep the hint
        return false;
      }
      ring_.heads[b] = kNilIndex;
      ring_.clear_bit(b);
      ring_count_ = 0;
      batch_.clear();
      batch_cursor_ = 0;
      batch_.push_back(index);
      now_ = rec.time;
      batch_time_ = rec.time;
      return true;
    }
    const std::size_t b = ring_.first_occupied();
    std::uint32_t& head = ring_.heads[b];
    // Pass 1: unlink tombstones, find the earliest live time.
    SimTime min_time = SimTime::infinity();
    std::uint32_t index = head;
    std::uint32_t prev = kNilIndex;
    while (index != kNilIndex) {
      const std::uint32_t next = record_next_[index];
      const EventRecord& rec = records_[index];
      if (!is_live(rec.id)) {
        (prev == kNilIndex ? head : record_next_[prev]) = next;
        reclaim_tombstone(index);
        --ring_count_;
      } else {
        if (rec.time < min_time) min_time = rec.time;
        prev = index;
      }
      index = next;
    }
    if (head == kNilIndex) {
      ring_.clear_bit(b);
      continue;
    }
    if (min_time > until) return false;
    batch_.clear();
    batch_cursor_ = 0;
    if (record_next_[head] == kNilIndex) {
      // Lone record in the bucket: it is the whole batch.
      batch_.push_back(head);
      head = kNilIndex;
      ring_.clear_bit(b);
      --ring_count_;
      now_ = min_time;
      batch_time_ = min_time;
      return true;
    }
    // Pass 2: extract every record at min_time into the batch (their
    // slab indices; the records stay in place until drained).
    index = head;
    prev = kNilIndex;
    while (index != kNilIndex) {
      const std::uint32_t next = record_next_[index];
      if (records_[index].time == min_time) {
        batch_.push_back(index);
        (prev == kNilIndex ? head : record_next_[prev]) = next;
        --ring_count_;
      } else {
        prev = index;
      }
      index = next;
    }
    if (head == kNilIndex) ring_.clear_bit(b);
    if (batch_.size() > 1) {
      std::sort(batch_.begin(), batch_.end(), [this](std::uint32_t a, std::uint32_t c) {
        return records_[a].seq < records_[c].seq;
      });
    }
    now_ = min_time;
    batch_time_ = min_time;
    return true;
  }
}

bool Simulator::reanchor(SimTime until) {
  // The ring is empty. Take the next occupied level-2 bucket, sweep its
  // tombstones and find its earliest live time — without committing to
  // anything.
  for (;;) {
    if (far_count_ == 0) return anchor_on_heap(until);
    const std::size_t b =
        far_.find_from(far_bucket(base_ps_ + kWindowPs), [](std::size_t) { return true; });
    std::uint32_t& head = far_.heads[b];
    SimTime min_time = SimTime::infinity();
    std::size_t live = 0;
    std::uint32_t index = head;
    std::uint32_t prev = kNilIndex;
    while (index != kNilIndex) {
      const std::uint32_t next = record_next_[index];
      const EventRecord& rec = records_[index];
      if (!is_live(rec.id)) {
        (prev == kNilIndex ? head : record_next_[prev]) = next;
        reclaim_tombstone(index);
        --far_count_;
      } else {
        if (rec.time < min_time) min_time = rec.time;
        ++live;
        prev = index;
      }
      index = next;
    }
    if (head == kNilIndex) {
      far_.clear_bit(b);
      continue;
    }
    if (min_time > until) return false;
    // Committed to executing at min_time: anchor the ring on this
    // bucket's window (one bucket holds one window: level 2 spans fewer
    // than 1024) and relink the whole bucket into it. Peeking alone
    // must not get here — base_ps_ may never pass now_.
    base_ps_ = window_of(min_time.ps());
    for (index = head; index != kNilIndex;) {
      const std::uint32_t next = record_next_[index];
      ring_.link(static_cast<std::size_t>((records_[index].time.ps() - base_ps_) >> kBucketShift),
                 index, record_next_);
      index = next;
    }
    ring_.scan_word = static_cast<std::size_t>((min_time.ps() - base_ps_) >> (kBucketShift + 6));
    sole_ring_index_ = live == 1 ? head : kNilIndex;
    ring_count_ = live;
    head = kNilIndex;
    far_.clear_bit(b);
    far_count_ -= live;
    ++stats_.reanchors;
    stats_.records_migrated += live;
    pull_from_heap();
    return true;
  }
}

bool Simulator::anchor_on_heap(SimTime until) {
  // Ring and level 2 are empty. Pop tombstones off the heap's top until
  // a live key surfaces; commit only if it will run, then anchor the
  // ring on its window.
  while (!far_heap_.empty() && !is_live(records_[far_heap_.front().index].id)) {
    const std::uint32_t index = far_heap_.front().index;
    std::pop_heap(far_heap_.begin(), far_heap_.end(), LaterKey{});
    far_heap_.pop_back();
    reclaim_tombstone(index);
  }
  if (far_heap_.empty() || far_heap_.front().time_ps > until.ps()) return false;
  base_ps_ = window_of(far_heap_.front().time_ps);
  ++stats_.reanchors;
  pull_from_heap();
  return true;
}

// The ring's window just moved: pull every heap key that level 2's
// span (or the ring's window) now covers and place it, so every
// level-2 time stays below every heap time.
void Simulator::pull_from_heap() {
  const std::int64_t horizon = base_ps_ + kFarSpanPs;
  while (!far_heap_.empty() && far_heap_.front().time_ps < horizon) {
    const FarKey key = far_heap_.front();
    std::pop_heap(far_heap_.begin(), far_heap_.end(), LaterKey{});
    far_heap_.pop_back();
    if (!is_live(records_[key.index].id)) {
      reclaim_tombstone(key.index);
      continue;
    }
    place(key.index, key.time_ps);
    ++stats_.records_migrated;
  }
}

std::size_t Simulator::drain_one() {
  const std::uint32_t index = batch_[batch_cursor_++];
  // `stored` stays valid until a handler runs: freeing the slab index
  // only touches the free list, and everything the handler could need
  // is copied out below before invocation.
  const EventRecord& stored = records_[index];
  const EventId id = stored.id;
  void (*const invoke)(void*) = stored.invoke;
  if (!is_live(id)) {
    reclaim_tombstone(index);
    return 0;  // cancelled while batched; cancel already freed the slot
  }
  free_record_index(index);
  const std::uint32_t slot = slot_of(id);
  --(slots_[slot].weak ? weak_count_ : strong_count_);
  ++executed_;
  if (invoke != nullptr) {
    slots_.recycle(slot);
    // The trampoline copies the functor off the slab before running
    // it; no user code touches the record between here and that copy.
    invoke(const_cast<std::byte*>(stored.payload));
  } else {
    // Move the handler out before recycling and invoking: the slot is
    // recycled first (so a handler cancelling its own id sees false,
    // and a chained reschedule reuses it), and the handler may grow
    // the pool mid-call.
    EventHandler fn;
    fn.swap(cold_[slot]);
    slots_.recycle(slot);
    fn();
  }
  return 1;
}

// Flattened: the per-event loop must not pay call prologues for
// next_batch/drain_one on every event.
__attribute__((flatten)) std::size_t Simulator::run_until(SimTime until) {
  const bool unbounded = until == SimTime::infinity();
  std::size_t count = 0;
  for (;;) {
    if (unbounded && strong_count_ == 0) break;
    if (batch_cursor_ < batch_.size()) {
      if (batch_time_ > until) break;  // resumed batch beyond this horizon
    } else if (!next_batch(until)) {
      break;
    }
    count += drain_one();
  }
  if (strong_count_ == 0 && !unbounded && now_ < until) {
    now_ = until;
  }
  return count;
}

__attribute__((flatten)) std::size_t Simulator::run_events(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events) {
    if (batch_cursor_ == batch_.size() && !next_batch(SimTime::infinity())) break;
    count += drain_one();
  }
  return count;
}

void Simulator::fast_forward_to(SimTime when) {
  if (strong_count_ != 0 || weak_count_ != 0) {
    throw std::logic_error("Simulator::fast_forward_to: events pending");
  }
  if (when < now_) {
    throw std::logic_error("Simulator::fast_forward_to: cannot rewind");
  }
  // Everything still queued is a tombstone (no live events, and a
  // tombstone owns nothing — cancel freed its slot and handler). Drop
  // them all and re-anchor both levels at the new clock.
  ring_.reset();
  far_.reset();
  far_heap_.clear();
  batch_.clear();
  batch_cursor_ = 0;
  records_.clear();
  record_next_.clear();
  record_free_.clear();
  record_spare_ = kNilIndex;
  ring_count_ = 0;
  far_count_ = 0;
  sole_ring_index_ = kNilIndex;
  now_ = when;
  base_ps_ = window_of(when.ps());
}

}  // namespace rsf::sim
