// rsf-lint — the determinism-contract rules.
//
// Rule ids (docs/ARCHITECTURE.md "Determinism contract" is the
// user-facing spec; tests/lint_fixtures/ is the executable one):
//
//   D0  annotation hygiene: every `// rsf-lint: directive(reason)`
//       must name a known directive and carry a non-empty reason.
//   D1  no nondeterminism sources: std::random_device, rand()/srand(),
//       wall clocks (system/steady/high_resolution_clock, time(),
//       clock_gettime, gettimeofday), getenv, sleeps, and
//       pointer-identity laundering (reinterpret_cast to
//       [u]intptr_t/size_t, std::hash over a pointer type).
//       Escape: nondet-ok(reason).
//   D2  unordered-container discipline: every unordered_map/set
//       declaration needs an order-insensitive(reason) justification,
//       and any range-for / .begin() iteration over one is flagged —
//       iteration order must never reach schedule_at, counter
//       emission, or RNG draws. Escape: order-insensitive(reason).
//   D3  SlotPool handle discipline: a lambda that indexes a SlotPool
//       must establish liveness first (is_live/get_live/claim or a
//       live_* helper) — a captured index can outlive its slot.
//       Escape: unguarded-slot-ok(reason).
//   D4  inline-event budget: a callable handed to schedule_* that
//       provably rides the cold std::function arm (captures or is a
//       std::function / other non-trivially-copyable value) is
//       flagged unless a static_assert(is_inline_event_v<...>) names
//       it. Escape: cold-event(reason).
//   D5  counter-name hygiene: every metric string literal
//       ("net.*", "crc.*", "spine.*", "fleet.*", "plp.*", "chaos.*")
//       must appear in docs/METRICS.md (link<digits> normalizes to
//       link<N>), and — when a whole tree is linted — every metric
//       row of the doc must still be named by the tree's literals.
//       No annotation escape — document (or undocument) the counter.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace rsflint {

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
  std::string fingerprint;  // normalize_ws of the finding's source line
};

struct AnalyzerConfig {
  /// Empty set = all rules. D5 additionally requires metrics_doc.
  std::set<std::string> rules;
  std::string metrics_doc;       // full text of docs/METRICS.md
  std::string metrics_doc_path;  // where reverse-D5 findings point
  bool metrics_doc_loaded = false;
  /// The file set is a whole source tree (--src-root), so a documented
  /// counter none of its literals names is really gone: enables D5's
  /// reverse direction. Lone files prove nothing about absence.
  bool whole_tree = false;

  [[nodiscard]] bool enabled(const std::string& rule) const {
    return rules.empty() || rules.count(rule) > 0;
  }
};

/// Run every enabled rule over `files` (two global passes: symbol
/// collection, then checks). Findings are sorted by (path, line, rule).
[[nodiscard]] std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                                           const AnalyzerConfig& cfg);

}  // namespace rsflint
