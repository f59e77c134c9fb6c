// rsfbench — in-memory spans written out as Chrome trace-event JSON.
//
// The traced run keeps one span per call the benchmark makes into a
// layer (set-up, injection batch, step, drain, probe) and writes them
// at exit. Open the file in https://ui.perfetto.dev or
// chrome://tracing. Spans carry the step's counter deltas as args.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace rsfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// `args` is a JSON object body without braces, e.g. "\"events\": 12".
  void span(std::string name, const char* category, Clock::time_point start,
            Clock::time_point end, std::string args = {}) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), category, micros(start), micros(end) - micros(start),
                      std::move(args)});
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...], "metadata": {metadata}}; false when
  /// the file cannot be written.
  bool write(const std::string& path, const std::string& metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {%s}}%s\n",
                   s.name.c_str(), s.category, s.ts_us, s.dur_us, s.args.c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {%s}}\n",
                 metadata.c_str());
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* category;
    double ts_us;
    double dur_us;
    std::string args;
  };

  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace rsfbench
