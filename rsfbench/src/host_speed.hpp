// rsfbench — the host-speed reference that end-to-end times are
// normalised by.
//
// The benchmark shares its cores with other tenants. Their load slows a
// cache- and branch-heavy program like the simulator by half or more for
// seconds at a time, while a plain arithmetic loop barely notices, so
// medians of raw host time drift between runs far more than between
// versions of the program. The reference is a fixed synthetic event
// loop (a binary heap of pending events over a 256 KB slot arena) that
// never changes with the program. The benchmark runs one short chunk of
// it after every simulated step and after every set-up, so the chunks
// sample the same contention the program meets; a measured time is then
// divided by the chunks' slowdown over their nominal time. Both the
// raw and the normalised times are printed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsfbench {

class HostSpeedReference {
 public:
  using Clock = std::chrono::steady_clock;

  /// About one chunk's time, built with GCC 12 -O3, on the 4-vCPU Xeon
  /// (model 207) the benchmark was tuned on, in a quiet period.
  /// Normalised times read as seconds on that host at that speed.
  static constexpr double kNominalChunkS = 40e-6;

  HostSpeedReference() : arena_(kSlots) {
    heap_.reserve(kPending);
    for (std::size_t i = 0; i < kPending; ++i) {
      heap_.push_back({next() % 100000, static_cast<std::uint32_t>(next() % kSlots)});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  /// Runs one chunk (a fixed number of events) and returns its host
  /// seconds. The reference's own state is first brought back into the
  /// core's caches and branch predictors, untimed, so the time does not
  /// depend on what the program left there.
  double chunk() {
    for (const Slot& s : arena_) sink_ += s.h;
    for (const Event& e : heap_) sink_ += e.at;
    run(kWarmEvents);
    const auto t0 = Clock::now();
    run(kChunkEvents);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  /// Slowdown of the host over the nominal, from a set of chunk times:
  /// their mean with the slowest 5% left out, so a chunk the scheduler
  /// preempted does not stand for a whole episode.
  static double slowdown(std::vector<double> chunks) {
    if (chunks.empty()) return 1;
    std::sort(chunks.begin(), chunks.end());
    const std::size_t keep = std::max<std::size_t>(1, chunks.size() - chunks.size() / 20);
    double sum = 0;
    for (std::size_t i = 0; i < keep; ++i) sum += chunks[i];
    return sum / static_cast<double>(keep) / kNominalChunkS;
  }

  /// Keeps the arena's updates observable, so none is optimised away.
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::size_t kSlots = 4096;  // x 64 B = 256 KB
  static constexpr std::size_t kPending = 2048;
  static constexpr int kWarmEvents = 100;
  static constexpr int kChunkEvents = 300;

  struct Slot {
    std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0, h = 0;
  };
  struct Event {
    std::uint64_t at;
    std::uint32_t slot;
    bool operator<(const Event& o) const { return at > o.at; }  // earliest on top
  };

  void run(int events) {
    for (int i = 0; i < events; ++i) {
      std::pop_heap(heap_.begin(), heap_.end());
      const Event ev = heap_.back();
      heap_.pop_back();
      Slot& s = arena_[ev.slot];
      s.a += ev.at;
      s.b ^= s.a;
      sink_ += s.b;
      auto slot = static_cast<std::uint32_t>(((s.b * 0x9E3779B97F4A7C15ull) >> 40) % kSlots);
      if ((s.a & 3) == 0) {
        arena_[slot].d += 1;
        slot = static_cast<std::uint32_t>(next() % kSlots);
      }
      heap_.push_back({ev.at + 1 + next() % 2000, slot});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  std::uint64_t next() {  // xorshift64
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  std::vector<Slot> arena_;
  std::vector<Event> heap_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink_ = 0;
};

}  // namespace rsfbench
