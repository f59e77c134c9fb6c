// rsfbench — one seeded benchmark for rsf.
//
//   rsfbench --workload rack_overload|rack_uniform|fleet_skew --seed N
//            --seconds S --trace 0|1 [--size full|tiny] [--trace-out PATH]
//            [--expected-digest HEX] [--commit ID] [--source-sha256 HEX]
//
// Single-threaded (one process, one thread, FleetConfig::workers = 1).
// Each episode builds the workload's runtime (set-up), advances it in
// fixed simulated-time steps until every offered flow has finished,
// stops the control loops, drains, and collects the metrics table and
// the output checks. Episodes repeat, after one unmeasured warm-up,
// until --seconds of host time have passed; timings are medians over
// episodes, normalised by the host-speed reference (host_speed.hpp)
// that runs one chunk after every step and every set-up. --trace 0
// prints the end-to-end metrics; --trace 1 alternates traced and
// untraced episodes, runs the per-layer probes on the last drained
// workload, writes the spans as Chrome trace-event JSON and prints the
// per-layer metrics. The last line of stdout is
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.hpp"
#include "probes.hpp"
#include "sim/log.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef RSFBENCH_COMPILER
#define RSFBENCH_COMPILER "unknown"
#endif
#ifndef RSFBENCH_BUILD_TYPE
#define RSFBENCH_BUILD_TYPE "unknown"
#endif

namespace rsfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
  std::optional<std::uint64_t> expected_digest;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rsfbench: %s\nusage: rsfbench --workload rack_overload|rack_uniform|fleet_skew "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] [--trace-out PATH] "
               "[--expected-digest HEX] [--commit ID] [--source-sha256 HEX]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size takes full or tiny");
      o.size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--expected-digest") {
      o.expected_digest = std::strtoull(v.c_str(), &end, 16);
      if (*end != '\0') usage("bad --expected-digest");
    } else if (flag == "--commit") {
      o.commit = v;
    } else if (flag == "--source-sha256") {
      o.source_sha256 = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), o.workload) ==
      std::end(kWorkloadNames)) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.trace_out.empty()) o.trace_out = "rsfbench-trace-" + o.workload + ".json";
  return o;
}

// --- statistics ----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A numeric field of /proc/self/status ("Threads:", "VmHWM:"), 0 if absent.
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::atol(line.c_str() + key.size());
  }
  return 0;
}

/// Peak resident memory of this program. VmHWM belongs to the address
/// space exec created, unlike getrusage's ru_maxrss, which keeps the
/// launching process's peak across fork and exec.
double peak_rss_mb() { return static_cast<double>(status_field("VmHWM:")) / 1024.0; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// --- episodes ------------------------------------------------------------

struct Episode {
  double run_s = 0;     // host time of the steps and the finish, chunks left out
  double slowdown = 1;  // of the host over the reference's nominal, during the episode
  double sim_seconds = 0;
  bool traced = false;
  std::vector<double> step_ms;
  std::vector<double> chunk_s;  // the reference chunk after each step
  std::vector<double> pending;  // pending + pending_weak per step boundary (traced)
  double inject_s = 0;          // host time inside the injection batches (traced)
  std::uint64_t injected = 0;
  Outcome outcome;
  LayerCounts counts;
};

Episode run_episode(const Options& o, HostSpeedReference& ref, Tracer* tracer,
                    std::unique_ptr<Workload>* keep) {
  Episode ep;
  ep.traced = tracer != nullptr;
  const auto t_setup = Clock::now();
  std::unique_ptr<Workload> w = Workload::make(o.workload, o.seed, o.size);
  const auto t_run = Clock::now();
  if (tracer) tracer->span("setup", "runtime", t_setup, t_run);

  rsf::sim::Simulator& sim = w->sim();
  while (!w->drained()) {
    const auto t0 = Clock::now();
    const std::uint64_t events0 = sim.executed();
    const std::size_t flows = w->inject();
    const auto t1 = Clock::now();
    w->advance();
    const auto t2 = Clock::now();
    ep.step_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t0).count());
    if (tracer) {
      const std::size_t pending = sim.pending() + sim.pending_weak();
      ep.pending.push_back(static_cast<double>(pending));
      ep.inject_s += seconds_between(t0, t1);
      ep.injected += flows;
      tracer->span("inject", "runtime", t0, t1, "\"flows\": " + std::to_string(flows));
      tracer->span("step", "sim", t0, t2,
                   "\"events\": " + std::to_string(sim.executed() - events0) +
                       ", \"flows\": " + std::to_string(flows) +
                       ", \"pending\": " + std::to_string(pending) +
                       ", \"sim_us\": " + std::to_string(sim.now().us()));
    }
    ep.chunk_s.push_back(ref.chunk());
  }
  const auto t_finish = Clock::now();
  ep.outcome = w->finish();
  const auto t_done = Clock::now();
  ep.run_s = seconds_between(t_run, t_done) -
             std::accumulate(ep.chunk_s.begin(), ep.chunk_s.end(), 0.0);
  ep.slowdown = HostSpeedReference::slowdown(ep.chunk_s);
  ep.sim_seconds = sim.now().sec();
  ep.counts = w->counts();
  if (tracer) {
    tracer->span("finish", "runtime", t_finish, t_done,
                 "\"metrics_table_ms\": " + std::to_string(ep.outcome.metrics_table_s * 1e3));
    tracer->span("episode", "bench", t_run, t_done,
                 "\"events\": " + std::to_string(ep.counts.events) +
                     ", \"flows\": " + std::to_string(ep.outcome.offered));
  }
  if (keep) *keep = std::move(w);
  return ep;
}

bool same_counts(const LayerCounts& a, const LayerCounts& b) {
  return a.events == b.events && a.packets == b.packets && a.hops == b.hops &&
         a.retransmits == b.retransmits && a.spine_packets == b.spine_packets &&
         a.plp_commands == b.plp_commands && a.crc_epochs == b.crc_epochs &&
         a.fleet_epochs == b.fleet_epochs;
}

// --- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16s %s\n", m.name.c_str(), format_number(m.value).c_str(), m.unit);
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Per-call cost with the kernel's share taken out: the probe's events
// per call at the kernel's cost on a drained simulator.
double self_ns(const PerCall& p, double sched_idle_ns) {
  return std::max(0.0, p.ns - p.events * sched_idle_ns);
}

int run(const Options& o) {
  rsf::sim::LogConfig::set_level(rsf::sim::LogLevel::kOff);
  Tracer tracer(o.trace);

  const std::string provenance =
      "\"cpu\": \"" + json_escape(cpu_model()) + "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) + ", \"compiler\": \"" +
      json_escape(RSFBENCH_COMPILER) + "\", \"build_type\": \"" + RSFBENCH_BUILD_TYPE +
      "\", \"commit\": \"" + json_escape(o.commit) + "\", \"source_sha256\": \"" +
      json_escape(o.source_sha256) + "\", \"workload\": \"" + o.workload +
      "\", \"seed\": " + std::to_string(o.seed) + ", \"step_us\": " +
      format_number(kStep.us()) +
      ", \"size\": \"" + (o.size == Size::kTiny ? "tiny" : "full") +
      "\", \"fleet_workers\": 1, \"trace\": " + (o.trace ? "1" : "0");
  std::printf("provenance {%s}\n", provenance.c_str());

  HostSpeedReference ref;
  // One unmeasured warm-up episode: allocator pools and caches fill.
  (void)run_episode(o, ref, nullptr, nullptr);

  std::vector<Episode> eps;
  std::unique_ptr<Workload> last;  // the last traced episode's drained workload
  const auto t_begin = Clock::now();
  const std::size_t min_episodes = o.trace ? 4 : 3;
  while (eps.size() < min_episodes || seconds_between(t_begin, Clock::now()) < o.seconds) {
    const bool traced = o.trace && eps.size() % 2 == 0;
    eps.push_back(run_episode(o, ref, traced ? &tracer : nullptr, traced ? &last : nullptr));
  }
  const double peak_rss = peak_rss_mb();  // of the episodes, before the set-up loop
  // Set-up alone, back to back, so its median rests on many samples
  // taken in one state of the allocator (an episode's set-up follows
  // the teardown of the previous episode's whole simulation). Each is
  // normalised by the reference chunk that follows it.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  const auto t_setups = Clock::now();
  while (setup_s.size() < 201 && seconds_between(t_setups, Clock::now()) < 2.0) {
    const auto t0 = Clock::now();
    auto w = Workload::make(o.workload, o.seed, o.size);
    setup_wall_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(setup_wall_s.back() / HostSpeedReference::slowdown({ref.chunk()}));
  }

  // --- output checks: every episode ok, all episodes identical, and
  //     the digest matches the one kept for this seed ---
  std::vector<std::string> failures;
  const Episode& first = eps.front();
  std::uint64_t attempted = 0;
  std::uint64_t not_done = 0;
  for (const Episode& e : eps) {
    for (const std::string& f : e.outcome.check_failures) failures.push_back(f);
    if (e.outcome.digest != first.outcome.digest || !same_counts(e.counts, first.counts)) {
      failures.push_back("episodes of one seed differ: not deterministic");
    }
    attempted += e.outcome.offered;
    not_done += e.outcome.flows_not_done();
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.outcome.digest));
  if (o.expected_digest && *o.expected_digest != first.outcome.digest) {
    failures.push_back("digest " + std::string(digest) + " differs from the expected digest");
  }
  const auto threads = static_cast<int>(status_field("Threads:"));
  const auto nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("threads %d (nproc %d)\n", threads, nproc);
  if (threads > std::max(nproc, 1)) failures.push_back("more threads than nproc");
  const bool correct = failures.empty();
  if (!correct) not_done = attempted;
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const Outcome& out = first.outcome;
  std::printf("digest %s (%s)\n", digest,
              !o.expected_digest ? "no expected digest kept for this seed"
              : *o.expected_digest == first.outcome.digest ? "matches the expected digest"
                                                           : "MISMATCH");
  std::printf("flows per episode: offered %llu (%llu B), completed %llu (%llu B), failed %llu "
              "(%llu B), in flight %llu (%llu B)\n",
              static_cast<unsigned long long>(out.offered),
              static_cast<unsigned long long>(out.offered_bytes),
              static_cast<unsigned long long>(out.completed),
              static_cast<unsigned long long>(out.completed_bytes),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.failed_bytes),
              static_cast<unsigned long long>(out.inflight),
              static_cast<unsigned long long>(out.inflight_bytes));
  std::printf("flows_failed_ratio %s (%llu failed or unfinished of %llu offered over %zu "
              "episodes)\n",
              format_number(attempted ? static_cast<double>(not_done) / attempted : 0).c_str(),
              static_cast<unsigned long long>(not_done),
              static_cast<unsigned long long>(attempted), eps.size());

  // Host times normalised by each episode's slowdown; the raw ones are
  // printed beside them.
  std::vector<double> run_untraced;
  std::vector<double> run_traced;
  std::vector<double> run_wall;
  std::vector<double> slowdowns;
  std::vector<double> mb_per_s;
  std::vector<double> steps;
  std::vector<double> steps_wall;
  for (const Episode& e : eps) {
    (e.traced ? run_traced : run_untraced).push_back(e.run_s / e.slowdown);
    if (!e.traced) {
      run_wall.push_back(e.run_s);
      slowdowns.push_back(e.slowdown);
      mb_per_s.push_back(static_cast<double>(e.outcome.completed_bytes) / 1e6 /
                         (e.run_s / e.slowdown));
      for (double ms : e.step_ms) steps.push_back(ms / e.slowdown);
      steps_wall.insert(steps_wall.end(), e.step_ms.begin(), e.step_ms.end());
    }
  }
  const double run_s = median(run_untraced);
  const double run_wall_s = median(run_wall);
  std::printf("episodes %zu (%zu traced), steps per episode %zu, step samples %zu, "
              "set-up samples %zu, simulated %s s and %llu events per episode\n",
              eps.size(), run_traced.size(), first.step_ms.size(), steps.size(),
              setup_s.size(), format_number(first.sim_seconds).c_str(),
              static_cast<unsigned long long>(first.counts.events));
  std::printf("host slowdown over the reference's nominal: median %s (episodes %s-%s); "
              "raw host time: setup_s %s, run_s %s, step_ms_p50 %s, step_ms_p90 %s "
              "(reference sink %llu)\n",
              format_number(median(slowdowns)).c_str(),
              format_number(quantile(slowdowns, 0)).c_str(),
              format_number(quantile(slowdowns, 1)).c_str(),
              format_number(median(setup_wall_s)).c_str(), format_number(run_wall_s).c_str(),
              format_number(quantile(steps_wall, 0.5)).c_str(),
              format_number(quantile(steps_wall, 0.9)).c_str(),
              static_cast<unsigned long long>(ref.sink()));

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", run_s, "s"},
        {"sim_mb_per_s", median(mb_per_s), "MB/s"},
        {"step_ms_p50", quantile(steps, 0.5), "ms"},
        {"step_ms_p90", quantile(steps, 0.9), "ms"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"flows_done_ratio",
         attempted ? static_cast<double>(attempted - not_done) / attempted : 0, "ratio"},
    };
    print_result(correct, attempted, not_done, metrics);
    return 0;
  }

  // --- traced run: per-layer metrics ---
  const Episode* traced = nullptr;
  std::vector<double> pending;
  double inject_s = 0;
  std::uint64_t injected = 0;
  std::vector<double> table_s;
  for (const Episode& e : eps) {
    table_s.push_back(e.outcome.metrics_table_s / e.slowdown);
    if (!e.traced) continue;
    traced = &e;
    pending.insert(pending.end(), e.pending.begin(), e.pending.end());
    inject_s += e.inject_s / e.slowdown;
    injected += e.injected;
  }
  const LayerCounts& c = traced->counts;
  const double pending_p50 = quantile(pending, 0.5);
  const double pending_mean =
      pending.empty() ? 0 : std::accumulate(pending.begin(), pending.end(), 0.0) / pending.size();
  // Little's law: mean pending = event rate x mean scheduling delay.
  const double mean_delay_us =
      c.events ? pending_mean / (static_cast<double>(c.events) / traced->sim_seconds) * 1e6 : 0;

  Workload& w = *last;
  rsf::runtime::FabricRuntime& rack = w.rack();
  // Each probe is normalised by reference chunks run just before and
  // just after it.
  auto probe = [&](const char* name, const char* layer, auto&& fn) {
    std::vector<double> chunks;
    for (int i = 0; i < 16; ++i) chunks.push_back(ref.chunk());
    const auto t0 = Clock::now();
    PerCall p = fn();
    const auto t1 = Clock::now();
    for (int i = 0; i < 16; ++i) chunks.push_back(ref.chunk());
    p.ns /= HostSpeedReference::slowdown(chunks);
    tracer.span(name, layer, t0, t1,
                "\"ns_per_call\": " + format_number(p.ns) +
                    ", \"calls\": " + std::to_string(p.calls));
    return p;
  };
  const auto preload = static_cast<std::size_t>(pending_p50);
  auto sched = [&](const char* name, std::size_t n, Delays d) {
    return probe(name, "sim", [&] { return probe_sched(n, d, mean_delay_us, o.seed); });
  };
  const PerCall near = sched("sim.sched.near", preload, Delays::kNear);
  const PerCall far = sched("sim.sched.far", preload, Delays::kFar);
  const PerCall shaped = sched("sim.sched.workload", preload, Delays::kMeanOf);
  // The kernel's share inside the other probes, which run on a
  // drained simulator: near delays, a handful pending.
  const PerCall idle = sched("sim.sched.idle", rack.node_count(), Delays::kNear);
  const PerCall crc = probe("core.crc_epoch", "core", [&] { return probe_crc_epoch(rack); });
  const PerCall fleet_epoch =
      probe("runtime.fleet_epoch", "runtime", [&] { return probe_fleet_epoch(w.fleet()); });
  const PerCall hop = probe("fabric.hop", "fabric", [&] { return probe_hop(rack, o.seed); });
  const PerCall warm = probe("fabric.next_hop.warm", "fabric", [&] { return probe_next_hop_warm(rack); });
  const PerCall cold = probe("fabric.next_hop.cold", "fabric", [&] { return probe_next_hop_cold(rack); });
  const PerCall usable = probe("fabric.usable", "fabric", [&] { return probe_usable(rack); });
  const PerCall frame =
      probe("phy.account_frame", "phy", [&] { return probe_account_frame(rack, o.seed); });
  const PerCall send_packet = probe("fabric.spine_send.packet", "fabric", [&] {
    return probe_spine_send(SpineRegime::kPacket, o.seed);
  });
  const PerCall send_carve = probe("fabric.spine_send.carve", "fabric", [&] {
    return probe_spine_send(SpineRegime::kCarve, o.seed);
  });
  const PerCall send_slotted = probe("fabric.spine_send.slotted", "fabric", [&] {
    return probe_spine_send(SpineRegime::kSlotted, o.seed);
  });
  const PerCall propose = probe("fabric.slot_propose", "fabric", [] { return probe_slot_propose(); });

  // Outside attribution of an untraced episode's run_s: per-call cost
  // x call count per module. The kernel's per-event cost comes from a
  // hold model with the workload's own pending count and mean delay;
  // the other probes have the kernel's share taken out. PLP commands
  // have no per-call probe and fall in the residual.
  const double hops = static_cast<double>(c.hops);
  const double slotted_share =
      c.spine_bytes ? static_cast<double>(c.slotted_bytes) / static_cast<double>(c.spine_bytes) : 0;
  const double spine_ns = (1 - slotted_share) * self_ns(send_packet, idle.ns) +
                          slotted_share * self_ns(send_slotted, idle.ns);
  const double start_flow_ns = injected ? inject_s / static_cast<double>(injected) * 1e9 : 0;
  const double est_sim = static_cast<double>(c.events) * shaped.ns * 1e-9;
  const double est_phy = hops * frame.ns * 1e-9;
  const double est_fabric = (hops * std::max(0.0, self_ns(hop, idle.ns) - frame.ns) +
                             static_cast<double>(c.spine_packets) * spine_ns) *
                            1e-9;
  const double est_core = static_cast<double>(c.crc_epochs) * self_ns(crc, idle.ns) * 1e-9;
  const double est_runtime =
      (static_cast<double>(traced->outcome.offered) * start_flow_ns +
       static_cast<double>(c.fleet_epochs) * self_ns(fleet_epoch, idle.ns)) *
      1e-9;
  const double est_telemetry = median(table_s);
  const double est_sum = est_sim + est_phy + est_fabric + est_core + est_runtime + est_telemetry;
  const double cache_lookups = static_cast<double>(c.route_cache_hits + c.route_cache_misses);
  const double slot_requests = static_cast<double>(c.slot_reservations + c.slot_refusals);
  std::printf("route cache: %llu hits of %s lookups; slot requests: %llu refused of %s\n",
              static_cast<unsigned long long>(c.route_cache_hits),
              format_number(cache_lookups).c_str(),
              static_cast<unsigned long long>(c.slot_refusals),
              format_number(slot_requests).c_str());
  std::printf("*.est_s are estimates: probe cost per call x public call counts\n");

  metrics = {
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.events_per_s", static_cast<double>(c.events) / run_s, "1/s"},
      {"sim.pending_p50", pending_p50, "count"},
      {"sim.pending_max", quantile(pending, 1.0), "count"},
      {"sim.mean_delay_us", mean_delay_us, "us"},
      {"sim.sched_ns.near", near.ns, "ns"},
      {"sim.sched_ns.far", far.ns, "ns"},
      {"sim.sched_ns.workload", shaped.ns, "ns"},
      {"sim.sched_ns.idle", idle.ns, "ns"},
      {"phy.account_frame_ns", frame.ns, "ns"},
      {"fabric.packets", static_cast<double>(c.packets), "count"},
      {"fabric.hops", hops, "count"},
      {"fabric.retransmits", static_cast<double>(c.retransmits), "count"},
      {"fabric.reroute_waits", static_cast<double>(c.reroute_waits), "count"},
      {"fabric.hop_ns", hop.ns, "ns"},
      {"fabric.next_hop_ns.warm", warm.ns, "ns"},
      {"fabric.next_hop_ns.cold", cold.ns, "ns"},
      {"fabric.usable_ns", usable.ns, "ns"},
      {"fabric.spine_packets", static_cast<double>(c.spine_packets), "count"},
      {"fabric.spine_retransmits", static_cast<double>(c.spine_retransmits), "count"},
      {"fabric.spine_reroutes", static_cast<double>(c.spine_reroutes), "count"},
      {"fabric.spine_slotted_bytes", static_cast<double>(c.slotted_bytes), "B"},
      {"fabric.route_cache_lookups", cache_lookups, "count"},
      {"fabric.route_cache_hit_ratio",
       cache_lookups > 0 ? static_cast<double>(c.route_cache_hits) / cache_lookups : 0, "ratio"},
      {"fabric.spine_send_ns.packet", send_packet.ns, "ns"},
      {"fabric.spine_send_ns.carve", send_carve.ns, "ns"},
      {"fabric.spine_send_ns.slotted", send_slotted.ns, "ns"},
      {"fabric.slot_propose_ns", propose.ns, "ns"},
      {"fabric.slot_requests", slot_requests, "count"},
      {"fabric.slot_refusal_ratio",
       slot_requests > 0 ? static_cast<double>(c.slot_refusals) / slot_requests : 0, "ratio"},
      {"plp.commands", static_cast<double>(c.plp_commands), "count"},
      {"plp.commands_failed", static_cast<double>(c.plp_commands_failed), "count"},
      {"core.crc_epochs", static_cast<double>(c.crc_epochs), "count"},
      {"core.crc_epoch_us", crc.ns * 1e-3, "us"},
      {"runtime.start_flow_ns", start_flow_ns, "ns"},
      {"runtime.fleet_epochs", static_cast<double>(c.fleet_epochs), "count"},
      {"runtime.fleet_epoch_us", fleet_epoch.ns * 1e-3, "us"},
      {"runtime.flow_slots", static_cast<double>(c.flow_slots), "count"},
      {"runtime.packet_slots", static_cast<double>(c.packet_slots), "count"},
      {"telemetry.metrics_table_ms", est_telemetry * 1e3, "ms"},
      {"sim.est_s", est_sim, "s"},
      {"phy.est_s", est_phy, "s"},
      {"fabric.est_s", est_fabric, "s"},
      {"core.est_s", est_core, "s"},
      {"runtime.est_s", est_runtime, "s"},
      {"telemetry.est_s", est_telemetry, "s"},
      {"residual.est_s", run_s - est_sum, "s"},
      {"bench.trace_overhead_s", median(run_traced) - run_s, "s"},
      {"bench.host_slowdown", median(slowdowns), "x"},
      {"bench.run_wall_s", run_wall_s, "s"},
  };
  if (tracer.write(o.trace_out, provenance)) {
    std::printf("trace: %zu spans written to %s\n", tracer.size(), o.trace_out.c_str());
  } else {
    std::printf("CHECK FAILED: cannot write the trace file %s\n", o.trace_out.c_str());
    print_result(false, attempted, attempted, metrics);
    return 0;
  }
  print_result(correct, attempted, not_done, metrics);
  return 0;
}

}  // namespace
}  // namespace rsfbench

int main(int argc, char** argv) {
  const rsfbench::Options options = rsfbench::parse(argc, argv);
  try {
    return rsfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsfbench: %s\n", e.what());
    return 1;
  }
}
