// Shared helpers for the experiment benches. Each bench binary
// regenerates one figure/table of the paper (see DESIGN.md §4): it
// builds a rack through the FabricRuntime facade, drives a workload,
// and prints the series as a table.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/log.hpp"
#include "telemetry/table.hpp"

namespace rsf::bench {

/// Benches run quiet: component logs off, results via tables only.
inline void quiet_logs() { rsf::sim::LogConfig::set_level(rsf::sim::LogLevel::kOff); }

inline void print_header(const char* id, const char* paper_artifact, const char* claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s — reproduces %s\n", id, paper_artifact);
  std::printf("# Paper claim: %s\n", claim);
  std::printf("################################################################\n");
}

/// The sweep arm pool: run fn(0) .. fn(count - 1), each exactly once,
/// on `workers` threads (the caller's plus up to workers - 1 helpers;
/// never more threads than items). Arms are independent simulations,
/// so fn(i) must write only to a result slot owned by index i: the
/// caller then assembles output in index order, and it never depends
/// on completion order or on the worker count. If an arm throws, no
/// further arms start and the first exception is rethrown once every
/// thread has joined.
template <typename Fn>
void run_pool(std::size_t count, int workers, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto pump = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      next.store(count, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    const std::size_t threads =
        std::min(static_cast<std::size_t>(std::max(workers, 1)), count);
    std::vector<std::jthread> helpers;  // joined on scope exit, throw or not
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(pump);
    pump();
  }
  if (error) std::rethrow_exception(error);
}

/// The sweep benches' command line: `--json <path>` (where the JSON
/// artifact goes) and `--workers N` (the arm pool's thread count).
struct SweepArgs {
  std::string json_path;
  int workers = 1;
};

/// Parse a sweep bench's flags. Returns nullopt, after saying why on
/// stderr under the bench's `id`, when --workers is below 1.
inline std::optional<SweepArgs> parse_sweep_args(int argc, char** argv, const char* id,
                                                 std::string default_json_path) {
  SweepArgs args{std::move(default_json_path), 1};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) args.json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--workers") == 0) args.workers = std::atoi(argv[i + 1]);
  }
  if (args.workers < 1) {
    std::fprintf(stderr, "%s: --workers must be >= 1\n", id);
    return std::nullopt;
  }
  return args;
}

/// A claimed regime against the packet baseline, in percent of the
/// baseline's job completion: the hot pair's speedup (positive =
/// faster) and the background's slowdown (positive = slower); 0 when
/// the baseline job took no time.
struct Crossover {
  double hot_speedup_pct = 0;
  double background_slowdown_pct = 0;
};

/// `Result` is any scenario result with `hot` and `background` jobs.
template <typename Result>
[[nodiscard]] Crossover crossover(const Result& packet, const Result& claimed) {
  const double hot_off = packet.hot.job_completion.us();
  const double bg_off = packet.background.job_completion.us();
  return {hot_off > 0 ? (hot_off - claimed.hot.job_completion.us()) / hot_off * 100.0 : 0.0,
          bg_off > 0 ? (claimed.background.job_completion.us() - bg_off) / bg_off * 100.0
                     : 0.0};
}

/// Aggregate traffic metrics over a finished generator run.
struct RunMetrics {
  double goodput_gbps = 0;
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double pkt_p50_us = 0;
  double pkt_p99_us = 0;
  double mean_hops = 0;
  std::uint64_t flows = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t failed = 0;
};

inline RunMetrics collect(const workload::FlowGenerator& gen, const fabric::Network& net) {
  RunMetrics m;
  m.goodput_gbps = gen.goodput_gbps();
  const auto fct = gen.completion_histogram();
  m.fct_p50_us = fct.p50() * 1e-6;  // ps -> us
  m.fct_p99_us = fct.p99() * 1e-6;
  m.pkt_p50_us = net.packet_latency().p50() * 1e-6;
  m.pkt_p99_us = net.packet_latency().p99() * 1e-6;
  m.mean_hops = net.hop_counts().mean();
  m.flows = gen.flows_generated();
  m.failed = net.flows_failed();
  for (const auto& r : gen.results()) m.retransmits += r.retransmits;
  return m;
}

/// Snapshot of a network's cumulative histograms at a phase boundary.
/// Take one before a measurement window, then diff with `since()` for
/// the window's own distribution — no mean*count arithmetic in benches.
struct NetSnapshot {
  telemetry::Histogram packet_latency;
  telemetry::Histogram hop_counts;

  [[nodiscard]] static NetSnapshot of(const fabric::Network& net) {
    return {net.packet_latency().snapshot(), net.hop_counts().snapshot()};
  }

  /// Distribution of packets recorded since this snapshot was taken.
  [[nodiscard]] telemetry::Histogram packets_since(const fabric::Network& net) const {
    return net.packet_latency().since(packet_latency);
  }
  [[nodiscard]] telemetry::Histogram hops_since(const fabric::Network& net) const {
    return net.hop_counts().since(hop_counts);
  }
};

}  // namespace rsf::bench
