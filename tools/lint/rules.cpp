#include "rules.hpp"

#include <algorithm>
#include <map>
#include <optional>

namespace rsflint {

namespace {

using Toks = std::vector<Token>;

const std::set<std::string> kUnorderedTypes = {"unordered_map", "unordered_set",
                                               "unordered_multimap", "unordered_multiset"};
const std::set<std::string> kWallClocks = {"system_clock", "steady_clock",
                                           "high_resolution_clock"};
const std::set<std::string> kClockCalls = {"clock_gettime", "gettimeofday", "timespec_get",
                                           "getenv", "sleep_for", "sleep_until"};
// Non-trivially-copyable std:: types whose by-value capture forces a
// scheduled lambda onto the cold std::function arm (D4).
const std::set<std::string> kNontrivialTypes = {
    "string", "basic_string", "vector", "deque", "list", "map", "multimap", "set",
    "multiset", "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "shared_ptr", "unique_ptr", "function"};
const std::set<std::string> kScheduleCalls = {"schedule_at", "schedule_after",
                                              "schedule_weak_at", "schedule_weak_after"};
// The registry prefixes D5 treats as metric names.
const std::vector<std::string> kMetricPrefixes = {"net.", "crc.", "spine.",
                                                  "fleet.", "plp.", "chaos."};
const std::set<std::string> kKnownDirectives = {"order-insensitive", "unguarded-slot-ok",
                                                "cold-event", "nondet-ok"};

bool is_metric_name(const std::string& s) {
  for (const std::string& p : kMetricPrefixes) {
    if (s.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

/// Per-link names normalize link<digits> to the documented link<N>
/// pattern.
std::string normalize_links(const std::string& s) {
  std::string norm;
  for (std::size_t i = 0; i < s.size();) {
    if (s.compare(i, 4, "link") == 0 && i + 4 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[i + 4]))) {
      norm += "link<N>";
      i += 4;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    } else {
      norm.push_back(s[i++]);
    }
  }
  return norm;
}

/// Per sibling-pair (same path stem: foo.hpp + foo.cpp) symbol table.
/// Name-based and file-local by design: a `cb` declared std::function
/// in one component must not taint every `cb` in the repo.
struct FileSymbols {
  std::map<std::string, int> unordered_vars;  // name -> decl line
  std::set<std::string> slotpool_vars;
  std::set<std::string> stdfunction_vars;
  std::set<std::string> nontrivial_vars;
};

struct Aliases {
  std::set<std::string> unordered;      // using Foo = std::unordered_map<...>
  std::set<std::string> stdfunction;    // using Cb = std::function<...>
  std::set<std::string> smallfunction;  // using Cb = core::SmallFunction<...> (inline-safe)
};

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    return path.substr(0, dot);
  }
  return path;
}

const Token& tk(const Toks& t, std::size_t i) {
  static const Token end{Token::Kind::End, "", 0};
  return i < t.size() ? t[i] : end;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == Token::Kind::Ident && t.text == s;
}
bool is_punct(const Token& t, const char* s) {
  return t.kind == Token::Kind::Punct && t.text == s;
}
/// Is token i preceded by `.` or `->` (a member access, not a free
/// name)?
bool member_access(const Toks& t, std::size_t i) {
  if (i == 0) return false;
  if (is_punct(tk(t, i - 1), ".")) return true;
  return i >= 2 && is_punct(tk(t, i - 1), ">") && is_punct(tk(t, i - 2), "-");
}
/// Skip a balanced <...> starting at `open` (which must be '<').
/// Returns the index just past the matching '>', or npos on failure.
std::size_t skip_angles(const Toks& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "<")) ++depth;
    else if (is_punct(t[i], ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(t[i], ";") || is_punct(t[i], "{") || t[i].kind == Token::Kind::End) {
      return std::string::npos;  // not a template argument list
    }
  }
  return std::string::npos;
}
/// Skip a balanced (...) / [...] / {...} starting at `open`.
std::size_t skip_group(const Toks& t, std::size_t open, const char* o, const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], o)) ++depth;
    else if (is_punct(t[i], c) && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// After a type spelled at [i .. type_end), recognise `qualifiers NAME
/// terminator` as a variable/parameter declaration and return NAME's
/// token index.
std::optional<std::size_t> decl_name_at(const Toks& t, std::size_t j) {
  while (is_punct(tk(t, j), "&") || is_punct(tk(t, j), "*") || is_ident(tk(t, j), "const")) {
    ++j;
  }
  if (tk(t, j).kind != Token::Kind::Ident) return std::nullopt;
  const Token& next = tk(t, j + 1);
  if (is_punct(next, ";") || is_punct(next, "=") || is_punct(next, "{") ||
      is_punct(next, ",") || is_punct(next, ")")) {
    return j;
  }
  return std::nullopt;
}

struct Capture {
  bool by_ref = false;
  std::string name;                // first identifier ("" for [=] / [&])
  std::vector<std::string> init;   // identifiers in the initializer, if any
};

struct Lambda {
  std::size_t intro = 0;  // token index of '['
  int line = 0;
  std::size_t body_begin = 0, body_end = 0;  // token range of {...}, exclusive
  std::vector<Capture> captures;
};

/// Lambda-introducer heuristic: '[' in expression position. Subscripts
/// (prev is an identifier, ')', ']' or a literal) and attributes
/// ('[[') are excluded.
bool lambda_position(const Toks& t, std::size_t i) {
  if (is_punct(tk(t, i + 1), "[")) return false;  // [[attribute]]
  if (i == 0) return true;
  const Token& p = t[i - 1];
  if (p.kind == Token::Kind::Ident) return p.text == "return" || p.text == "co_return";
  if (p.kind == Token::Kind::Number || p.kind == Token::Kind::String ||
      p.kind == Token::Kind::CharLit) {
    return false;
  }
  if (is_punct(p, ")") || is_punct(p, "]") || is_punct(p, "[")) return false;
  return true;  // ( , = { ; : < > ? ! & | + - * / % ...
}

std::vector<Lambda> find_lambdas(const Toks& t) {
  std::vector<Lambda> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(t[i], "[") || !lambda_position(t, i)) continue;
    const std::size_t close = skip_group(t, i, "[", "]");
    if (close == std::string::npos) continue;
    // Between ']' and '{': an optional parameter list, specifiers and
    // a trailing return type. Anything statement-ending means this
    // was not a lambda after all.
    std::size_t j = close;
    bool ok = false;
    while (j < t.size()) {
      if (is_punct(t[j], "{")) { ok = true; break; }
      if (is_punct(t[j], "(")) {
        j = skip_group(t, j, "(", ")");
        if (j == std::string::npos) break;
        continue;
      }
      if (is_punct(t[j], ";") || is_punct(t[j], ",") || is_punct(t[j], ")") ||
          is_punct(t[j], "}") || is_punct(t[j], "]") || t[j].kind == Token::Kind::End) {
        break;
      }
      ++j;
    }
    if (!ok) continue;
    Lambda lam;
    lam.intro = i;
    lam.line = t[i].line;
    lam.body_begin = j + 1;
    lam.body_end = skip_group(t, j, "{", "}");
    if (lam.body_end == std::string::npos) continue;
    --lam.body_end;  // exclude the closing '}'
    // Parse the capture list: top-level comma-separated segments.
    std::size_t seg = i + 1;
    int depth = 0;
    Capture cur;
    bool saw_eq = false;
    auto flush = [&] {
      if (cur.by_ref || saw_eq || !cur.name.empty()) lam.captures.push_back(cur);
      cur = Capture{};
      saw_eq = false;
    };
    for (std::size_t k = seg; k < close - 1; ++k) {
      const Token& c = t[k];
      if (is_punct(c, "(") || is_punct(c, "[") || is_punct(c, "{") || is_punct(c, "<")) ++depth;
      if (is_punct(c, ")") || is_punct(c, "]") || is_punct(c, "}") || is_punct(c, ">")) --depth;
      if (depth == 0 && is_punct(c, ",")) { flush(); continue; }
      if (is_punct(c, "&") && cur.name.empty() && !saw_eq) cur.by_ref = true;
      else if (is_punct(c, "=") && depth == 0 && !saw_eq) saw_eq = true;
      else if (c.kind == Token::Kind::Ident) {
        if (saw_eq) cur.init.push_back(c.text);
        else if (cur.name.empty()) cur.name = c.text;
      }
    }
    flush();
    out.push_back(std::move(lam));
  }
  return out;
}

struct Analyzer {
  const AnalyzerConfig& cfg;
  Aliases aliases;
  std::map<std::string, FileSymbols> symbols;  // keyed by path stem
  std::vector<Finding> findings;

  void report(const SourceFile& f, int line, const std::string& rule,
              const std::string& message) {
    findings.push_back(
        Finding{rule, f.path, line, message, normalize_ws(f.line_text(line))});
  }

  // ---- pass A1: type aliases (global, so a typedef in one header is
  // understood at every use site) ----
  void collect_aliases(const SourceFile& f) {
    const Toks& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!is_ident(t[i], "using") || t[i + 1].kind != Token::Kind::Ident ||
          !is_punct(t[i + 2], "=")) {
        continue;
      }
      const std::string& name = t[i + 1].text;
      for (std::size_t j = i + 3; j < t.size() && !is_punct(t[j], ";"); ++j) {
        if (t[j].kind != Token::Kind::Ident) continue;
        if (kUnorderedTypes.count(t[j].text) > 0) {
          aliases.unordered.insert(name);
          break;
        }
        if (t[j].text == "function" && j > 0 && is_punct(t[j - 1], ":")) {
          aliases.stdfunction.insert(name);
          break;
        }
        if (t[j].text == "SmallFunction") {
          aliases.smallfunction.insert(name);
          break;
        }
        if (aliases.stdfunction.count(t[j].text) > 0) {
          aliases.stdfunction.insert(name);
          break;
        }
      }
    }
  }

  // ---- pass A2: variable/member/parameter declarations ----
  void collect_decls(const SourceFile& f) {
    FileSymbols& sym = symbols[stem_of(f.path)];
    const Toks& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::Ident || member_access(t, i)) continue;
      const std::string& w = t[i].text;

      const bool unordered_type =
          kUnorderedTypes.count(w) > 0 || aliases.unordered.count(w) > 0;
      const bool stdfn_type = (w == "function" && i > 0 && is_punct(t[i - 1], ":")) ||
                              aliases.stdfunction.count(w) > 0;
      const bool pool_type = w == "SlotPool";
      const bool nontrivial_type = i > 0 && is_punct(t[i - 1], ":") &&
                                   kNontrivialTypes.count(w) > 0;
      if (!unordered_type && !stdfn_type && !pool_type && !nontrivial_type) continue;

      std::size_t j = i + 1;
      if (is_punct(tk(t, j), "<")) {
        j = skip_angles(t, j);
        if (j == std::string::npos) continue;
      } else if (pool_type || kUnorderedTypes.count(w) > 0 ||
                 (w == "function" && stdfn_type)) {
        continue;  // the real templates always carry arguments at a type use
      }
      const auto name_at = decl_name_at(t, j);
      if (!name_at) continue;
      const std::string& var = t[*name_at].text;
      const int line = t[*name_at].line;

      if (pool_type) sym.slotpool_vars.insert(var);
      if (stdfn_type) sym.stdfunction_vars.insert(var);
      if (nontrivial_type || stdfn_type || unordered_type) sym.nontrivial_vars.insert(var);
      if (unordered_type) {
        sym.unordered_vars.emplace(var, line);
        if (cfg.enabled("D2") && !f.has_annotation("order-insensitive", line)) {
          report(f, line, "D2",
                 "unordered container '" + var +
                     "' declared without an order-insensitivity justification; annotate "
                     "`// rsf-lint: order-insensitive(<why>)` or use an ordered container");
        }
      }
    }
  }

  // ---- pass B rules ----
  void check_annotations(const SourceFile& f) {
    if (!cfg.enabled("D0")) return;
    for (const Annotation& a : f.annotations) {
      if (a.malformed) {
        report(f, a.comment_line, "D0",
               "malformed rsf-lint annotation: `" + a.directive +
                   "` needs a non-empty (reason)");
      } else if (kKnownDirectives.count(a.directive) == 0) {
        report(f, a.comment_line, "D0",
               "unknown rsf-lint directive `" + a.directive + "`");
      }
    }
  }

  void check_d1(const SourceFile& f) {
    if (!cfg.enabled("D1")) return;
    const Toks& t = f.tokens;
    auto flag = [&](std::size_t i, const std::string& what) {
      if (!f.has_annotation("nondet-ok", t[i].line)) {
        report(f, t[i].line, "D1", what + " is a nondeterminism source; simulation code "
                                   "must draw from sim::Random / SimTime only");
      }
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::Ident || member_access(t, i)) continue;
      const std::string& w = t[i].text;
      if (w == "random_device") { flag(i, "std::random_device"); continue; }
      if (kWallClocks.count(w) > 0) { flag(i, "wall clock std::chrono::" + w); continue; }
      if (kClockCalls.count(w) > 0 && is_punct(tk(t, i + 1), "(")) { flag(i, w + "()"); continue; }
      if ((w == "rand" || w == "srand" || w == "time") && is_punct(tk(t, i + 1), "(")) {
        // Qualified by anything other than std:: (sim::time, x::rand)
        // is someone else's symbol.
        if (i >= 2 && is_punct(t[i - 1], ":") && is_punct(t[i - 2], ":") &&
            !(i >= 3 && is_ident(t[i - 3], "std"))) {
          continue;
        }
        flag(i, w + "()");
        continue;
      }
      if (w == "reinterpret_cast" && is_punct(tk(t, i + 1), "<")) {
        const std::size_t end = skip_angles(t, i + 1);
        if (end == std::string::npos) continue;
        for (std::size_t j = i + 2; j + 1 < end; ++j) {
          if (t[j].kind == Token::Kind::Ident &&
              (t[j].text == "uintptr_t" || t[j].text == "intptr_t" ||
               t[j].text == "size_t")) {
            flag(i, "pointer-identity laundering (reinterpret_cast<" + t[j].text + ">)");
            break;
          }
        }
        continue;
      }
      if (w == "hash" && is_punct(tk(t, i + 1), "<")) {
        const std::size_t end = skip_angles(t, i + 1);
        if (end == std::string::npos) continue;
        for (std::size_t j = i + 2; j + 1 < end; ++j) {
          if (is_punct(t[j], "*")) {
            flag(i, "hashing a pointer value (std::hash over a pointer type)");
            break;
          }
        }
      }
    }
  }

  void check_d2_loops(const SourceFile& f) {
    if (!cfg.enabled("D2")) return;
    const Toks& t = f.tokens;
    const FileSymbols& sym = symbols[stem_of(f.path)];
    auto unordered_name = [&](const Token& tok) {
      return tok.kind == Token::Kind::Ident &&
             (sym.unordered_vars.count(tok.text) > 0 ||
              aliases.unordered.count(tok.text) > 0 ||
              kUnorderedTypes.count(tok.text) > 0);
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
      // Range-for whose range expression names an unordered container.
      if (is_ident(t[i], "for") && is_punct(tk(t, i + 1), "(")) {
        const std::size_t end = skip_group(t, i + 1, "(", ")");
        if (end == std::string::npos) continue;
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t j = i + 1; j + 1 < end; ++j) {
          if (is_punct(t[j], "(")) ++depth;
          if (is_punct(t[j], ")")) --depth;
          if (depth == 1 && is_punct(t[j], ":") && !is_punct(tk(t, j - 1), ":") &&
              !is_punct(tk(t, j + 1), ":")) {
            colon = j;
            break;
          }
        }
        if (colon == std::string::npos) continue;
        for (std::size_t j = colon + 1; j + 1 < end; ++j) {
          if (unordered_name(t[j])) {
            if (!f.has_annotation("order-insensitive", t[i].line)) {
              report(f, t[i].line, "D2",
                     "iteration over unordered container '" + t[j].text +
                         "': the visit order is nondeterministic and must not become "
                         "observable (annotate `// rsf-lint: order-insensitive(<why>)` "
                         "only when it provably cannot)");
            }
            break;
          }
        }
        continue;
      }
      // Iterator-style loops: unordered_var.begin() / .cbegin().
      if (t[i].kind == Token::Kind::Ident && sym.unordered_vars.count(t[i].text) > 0 &&
          !member_access(t, i) && is_punct(tk(t, i + 1), ".") &&
          (is_ident(tk(t, i + 2), "begin") || is_ident(tk(t, i + 2), "cbegin")) &&
          is_punct(tk(t, i + 3), "(")) {
        if (!f.has_annotation("order-insensitive", t[i].line)) {
          report(f, t[i].line, "D2",
                 "iterator over unordered container '" + t[i].text +
                     "': the visit order is nondeterministic and must not become "
                     "observable");
        }
      }
    }
  }

  void check_d3(const SourceFile& f, const std::vector<Lambda>& lambdas) {
    if (!cfg.enabled("D3")) return;
    const Toks& t = f.tokens;
    const FileSymbols& sym = symbols[stem_of(f.path)];
    if (sym.slotpool_vars.empty()) return;
    for (const Lambda& lam : lambdas) {
      for (const std::string& pool : sym.slotpool_vars) {
        bool guarded = false;
        for (std::size_t i = lam.body_begin; i < lam.body_end; ++i) {
          if (t[i].kind != Token::Kind::Ident) continue;
          const std::string& w = t[i].text;
          if (w == "is_live" || w == "get_live" || w == "maybe_recycle" || w == "claim" ||
              w.rfind("live", 0) == 0) {
            guarded = true;
            continue;
          }
          if (w == pool && !member_access(t, i) && is_punct(tk(t, i + 1), "[") &&
              !guarded) {
            if (!f.has_annotation("unguarded-slot-ok", t[i].line) &&
                !f.has_annotation("unguarded-slot-ok", lam.line)) {
              report(f, t[i].line, "D3",
                     "lambda indexes SlotPool '" + pool +
                         "' without establishing liveness first (is_live/get_live/"
                         "claim); a captured slot index can outlive its slot");
            }
            break;  // one finding per (lambda, pool)
          }
        }
      }
    }
  }

  void check_d4(const SourceFile& f, const std::vector<Lambda>& lambdas) {
    if (!cfg.enabled("D4")) return;
    const Toks& t = f.tokens;
    const FileSymbols& sym = symbols[stem_of(f.path)];

    // Names pinned inline by a static_assert(is_inline_event_v<decltype(NAME)>).
    std::set<std::string> asserted;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i], "is_inline_event_v")) continue;
      for (std::size_t j = i; j < std::min(t.size(), i + 8); ++j) {
        if (is_ident(t[j], "decltype") && is_punct(tk(t, j + 1), "(") &&
            tk(t, j + 2).kind == Token::Kind::Ident && is_punct(tk(t, j + 3), ")")) {
          asserted.insert(t[j + 2].text);
          break;
        }
      }
    }

    std::map<std::size_t, const Lambda*> lambda_at;
    for (const Lambda& lam : lambdas) lambda_at[lam.intro] = &lam;

    auto cold_capture = [&](const Lambda& lam) -> std::string {
      for (const Capture& c : lam.captures) {
        if (c.by_ref) continue;
        if (sym.stdfunction_vars.count(c.name) > 0) {
          return "captures std::function '" + c.name + "' by value";
        }
        if (sym.nontrivial_vars.count(c.name) > 0) {
          return "captures non-trivially-copyable '" + c.name + "' by value";
        }
        for (const std::string& id : c.init) {
          if (sym.stdfunction_vars.count(id) > 0 || sym.nontrivial_vars.count(id) > 0) {
            return "move/init-captures non-trivially-copyable '" + id + "'";
          }
        }
      }
      return "";
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::Ident || kScheduleCalls.count(t[i].text) == 0 ||
          !is_punct(tk(t, i + 1), "(")) {
        continue;
      }
      const std::size_t end = skip_group(t, i + 1, "(", ")");
      if (end == std::string::npos) continue;
      // Last top-level argument.
      std::size_t arg = i + 2;
      int depth = 0;
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (is_punct(t[j], "(") || is_punct(t[j], "[") || is_punct(t[j], "{")) ++depth;
        if (is_punct(t[j], ")") || is_punct(t[j], "]") || is_punct(t[j], "}")) --depth;
        if (depth == 0 && is_punct(t[j], ",")) arg = j + 1;
      }
      const int call_line = t[i].line;
      if (f.has_annotation("cold-event", call_line)) continue;

      std::string why;
      int at_line = call_line;
      if (is_punct(tk(t, arg), "[")) {
        const auto it = lambda_at.find(arg);
        if (it == lambda_at.end()) continue;
        if (f.has_annotation("cold-event", it->second->line)) continue;
        why = cold_capture(*it->second);
        at_line = it->second->line;
      } else {
        // A lone identifier (or std::move(identifier)).
        std::size_t id = arg;
        if (is_ident(t[arg], "std") && is_punct(tk(t, arg + 1), ":") &&
            is_ident(tk(t, arg + 3), "move")) {
          id = arg + 5;  // std :: move ( X
        }
        if (tk(t, id).kind != Token::Kind::Ident) continue;
        const std::string& name = t[id].text;
        if (asserted.count(name) > 0) continue;
        if (sym.stdfunction_vars.count(name) > 0) {
          why = "'" + name + "' is a std::function";
        } else {
          // A named lambda: find `name = [` and re-use its captures.
          for (std::size_t j = 0; j + 2 < t.size(); ++j) {
            if (is_ident(t[j], name.c_str()) && is_punct(tk(t, j + 1), "=") &&
                is_punct(tk(t, j + 2), "[")) {
              const auto it = lambda_at.find(j + 2);
              if (it != lambda_at.end()) {
                if (f.has_annotation("cold-event", it->second->line)) { why.clear(); break; }
                why = cold_capture(*it->second);
              }
              break;
            }
          }
        }
      }
      if (!why.empty()) {
        report(f, at_line, "D4",
               "event rides the cold std::function arm (" + why +
                   "); hot paths must stay inline-eligible — pin with "
                   "static_assert(sim::is_inline_event_v<...>), use "
                   "core::SmallFunction, or annotate `// rsf-lint: cold-event(<why>)`");
      }
    }
  }

  void check_d5(const SourceFile& f) {
    if (!cfg.enabled("D5") || !cfg.metrics_doc_loaded) return;
    for (const Token& tok : f.tokens) {
      if (tok.kind != Token::Kind::String) continue;
      const std::string& s = tok.text;
      if (!is_metric_name(s)) continue;
      bool clean = true;
      for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
            c != '-') {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      const std::string norm = normalize_links(s);
      if (cfg.metrics_doc.find(norm) == std::string::npos) {
        report(f, tok.line, "D5",
               "metric \"" + s + "\" is not documented in docs/METRICS.md (looked for \"" +
                   norm + "\"); new counters must land with their docs");
      }
    }
  }

  /// D5, reverse direction: every metric row of the doc must still be
  /// named in the analyzed tree. A name counts as present when it is a
  /// string literal, or is composed from two: a literal ending in '.'
  /// plus the rest ("net.drops." + reason), or the two sides of a
  /// per-link index ("spine.link" + std::to_string(id) + ".packets").
  void check_d5_rows(const std::vector<SourceFile>& files) {
    if (!cfg.enabled("D5") || !cfg.metrics_doc_loaded || !cfg.whole_tree) return;
    std::set<std::string> literals;
    for (const SourceFile& f : files) {
      for (const Token& tok : f.tokens) {
        if (tok.kind == Token::Kind::String) literals.insert(normalize_links(tok.text));
      }
    }
    const auto named = [&](const std::string& name) {
      if (literals.count(name) > 0) return true;
      for (std::size_t i = 1; i < name.size(); ++i) {
        if (name[i - 1] == '.' && literals.count(name.substr(0, i)) > 0 &&
            literals.count(name.substr(i)) > 0) {
          return true;
        }
      }
      const std::size_t n = name.find("link<N>");
      return n != std::string::npos && literals.count(name.substr(0, n + 4)) > 0 &&
             literals.count(name.substr(n + 7)) > 0;
    };
    // Metric rows: a table line whose first cell is one backticked name.
    int line_no = 0;
    std::size_t start = 0;
    while (start < cfg.metrics_doc.size()) {
      std::size_t end = cfg.metrics_doc.find('\n', start);
      if (end == std::string::npos) end = cfg.metrics_doc.size();
      const std::string line = cfg.metrics_doc.substr(start, end - start);
      start = end + 1;
      ++line_no;
      if (line.rfind("| `", 0) != 0) continue;
      const std::size_t close = line.find('`', 3);
      if (close == std::string::npos) continue;
      const std::string name = line.substr(3, close - 3);
      if (!is_metric_name(name) || named(name)) continue;
      findings.push_back(Finding{"D5", cfg.metrics_doc_path, line_no,
                                 "documented metric \"" + name +
                                     "\" is named nowhere in the source tree; delete its "
                                     "row with the counter",
                                 normalize_ws(line)});
    }
  }
};

}  // namespace

std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                             const AnalyzerConfig& cfg) {
  Analyzer a{cfg, {}, {}, {}};
  for (const SourceFile& f : files) a.collect_aliases(f);
  for (const SourceFile& f : files) a.collect_decls(f);
  for (const SourceFile& f : files) {
    const std::vector<Lambda> lambdas = find_lambdas(f.tokens);
    a.check_annotations(f);
    a.check_d1(f);
    a.check_d2_loops(f);
    a.check_d3(f, lambdas);
    a.check_d4(f, lambdas);
    a.check_d5(f);
  }
  a.check_d5_rows(files);
  std::sort(a.findings.begin(), a.findings.end(), [](const Finding& x, const Finding& y) {
    if (x.path != y.path) return x.path < y.path;
    if (x.line != y.line) return x.line < y.line;
    if (x.rule != y.rule) return x.rule < y.rule;
    return x.message < y.message;
  });
  a.findings.erase(std::unique(a.findings.begin(), a.findings.end(),
                               [](const Finding& x, const Finding& y) {
                                 return x.path == y.path && x.line == y.line &&
                                        x.rule == y.rule && x.message == y.message;
                               }),
                   a.findings.end());
  return a.findings;
}

}  // namespace rsflint
