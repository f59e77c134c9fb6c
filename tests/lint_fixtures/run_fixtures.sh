#!/usr/bin/env bash
# Fixture gate for rsf-lint. This is the negative test that proves the
# lint ctest CAN fail: every bad fixture must be rejected with the
# right rule id (and only by its own rule), every good fixture must
# pass all rules, a documented metric row the linted tree no longer
# names must fail D5, the baseline ratchet must both suppress matched
# entries and fail stale ones, and injecting a single fresh violation
# into a clean file must flip it to failing.
#
# Usage: run_fixtures.sh /path/to/rsf-lint
# Run from tests/lint_fixtures (the CMake test sets WORKING_DIRECTORY).

set -u

LINT="${1:?usage: run_fixtures.sh /path/to/rsf-lint}"
DOC=metrics_doc.md
FAILURES=0
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# run <expected-exit> <label> [lint args...]
# Captures output in $OUT for content assertions.
run() {
  local want="$1" label="$2"
  shift 2
  OUT="$("$LINT" --metrics-doc "$DOC" "$@" 2>&1)"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    fail "$label: exit $got, wanted $want"$'\n'"$OUT"
    return 1
  fi
  return 0
}

# ---- 1. every bad fixture fails, flagged by its own rule id ----
for r in 0 1 2 3 4 5; do
  if run 1 "bad/d$r.cpp (all rules)" "bad/d$r.cpp"; then
    echo "$OUT" | grep -q "\[D$r\]" || fail "bad/d$r.cpp: no [D$r] finding in:"$'\n'"$OUT"
  fi
  run 1 "bad/d$r.cpp (--rule D$r alone)" --rule "D$r" "bad/d$r.cpp"
done

# Rule-id precision: a bad fixture must be CLEAN under every rule that
# is not its own — cross-fire would make the ids meaningless.
for r in 0 1 2 3 4 5; do
  for other in 0 1 2 3 4 5; do
    [ "$r" -eq "$other" ] && continue
    run 0 "bad/d$r.cpp under --rule D$other (must not cross-fire)" \
        --rule "D$other" "bad/d$r.cpp"
  done
done

# Specific shapes that must each be present (one rule id can cover
# several distinct findings).
run 1 "bad/d1.cpp shapes" "bad/d1.cpp"
for needle in random_device steady_clock "srand()" "time()" "rand()" \
              pointer-identity "hashing a pointer"; do
  echo "$OUT" | grep -qF "$needle" || fail "bad/d1.cpp: missing D1 shape '$needle'"
done
run 1 "bad/d2.cpp shapes" "bad/d2.cpp"
[ "$(echo "$OUT" | grep -c '\[D2\]')" -ge 3 ] ||
  fail "bad/d2.cpp: wanted decl + range-for + iterator findings, got:"$'\n'"$OUT"
run 1 "bad/d4.cpp shapes" "bad/d4.cpp"
[ "$(echo "$OUT" | grep -c '\[D4\]')" -eq 2 ] ||
  fail "bad/d4.cpp: wanted capture + direct-pass findings, got:"$'\n'"$OUT"
run 1 "bad/d5.cpp has no annotation escape" --rule D5 "bad/d5.cpp"

# ---- 2. every good fixture passes all rules ----
for r in 1 2 3 4 5; do
  run 0 "good/d$r.cpp" "good/d$r.cpp"
done
run 0 "good corpus together" good/d1.cpp good/d2.cpp good/d3.cpp good/d4.cpp good/d5.cpp

# ---- 2b. D5 in reverse: linting a whole tree (--src-root), every
# metric row of the doc must still be named there, directly or
# composed from two literals ----
DOC=good/d5_rows.md run 0 "good/d5_rows.md: every row named by the good tree" \
    --rule D5 --src-root good
if DOC=bad/d5_rows.md run 1 "bad/d5_rows.md: stale rows" --rule D5 --src-root good; then
  [ "$(echo "$OUT" | grep -c '^bad/d5_rows.md:[0-9]*: \[D5\]')" -eq 2 ] ||
    fail "bad/d5_rows.md: wanted exactly the two stale rows, got:"$'\n'"$OUT"
  for name in net.retired_counter net.drops.retired_reason; do
    echo "$OUT" | grep -qF "\"$name\"" || fail "bad/d5_rows.md: '$name' not flagged"
  done
fi
# Lone files prove nothing about absence: no reverse check without a tree.
DOC=bad/d5_rows.md run 0 "bad/d5_rows.md against lone files" --rule D5 good/d5.cpp

# ---- 3. baseline ratchet mechanics ----
# 3a. --update-baseline then rerun: everything suppressed, exit 0.
"$LINT" --metrics-doc "$DOC" --baseline "$TMP/base.txt" --update-baseline \
        bad/d1.cpp bad/d2.cpp >/dev/null 2>&1 ||
  fail "update-baseline: nonzero exit"
[ -s "$TMP/base.txt" ] || fail "update-baseline: wrote no entries"
run 0 "baselined bad fixtures pass" --baseline "$TMP/base.txt" bad/d1.cpp bad/d2.cpp
echo "$OUT" | grep -q "baselined" || fail "baselined run did not report suppressions"

# 3b. a NEW violation is still caught through the baseline.
run 1 "baseline does not mask new findings" --baseline "$TMP/base.txt" \
    bad/d1.cpp bad/d2.cpp bad/d5.cpp
echo "$OUT" | grep -q "\[D5\]" || fail "new D5 finding not reported through baseline"

# 3c. stale entries fail: lint a clean file against that baseline.
run 1 "stale baseline entries fail" --baseline "$TMP/base.txt" good/d1.cpp
echo "$OUT" | grep -q "stale baseline entry" || fail "no stale-entry diagnostic in:"$'\n'"$OUT"

# 3d. the fingerprint survives line drift: prepend comment lines to a
# baselined file and the entries must still match.
mkdir -p "$TMP/drift/bad"
{ printf '// drifted\n// drifted again\n'; cat bad/d2.cpp; } > "$TMP/drift/bad/d2.cpp"
( cd "$TMP/drift" &&
  "$LINT" --metrics-doc "$OLDPWD/$DOC" --baseline "$TMP/line_base.txt" \
          --update-baseline bad/d2.cpp >/dev/null 2>&1 )
( cd "$TMP/drift" && sed -i '1i // more drift' bad/d2.cpp &&
  "$LINT" --metrics-doc "$OLDPWD/$DOC" --baseline "$TMP/line_base.txt" \
          bad/d2.cpp >/dev/null 2>&1 ) ||
  fail "baseline match did not survive line drift"

# ---- 4. injection: one fresh violation flips a clean file ----
inject() {
  local r="$1" snippet="$2"
  mkdir -p "$TMP/inject"
  cp "good/d$r.cpp" "$TMP/inject/d$r.cpp"
  printf '%s\n' "$snippet" >> "$TMP/inject/d$r.cpp"
  OUT="$("$LINT" --metrics-doc "$DOC" "$TMP/inject/d$r.cpp" 2>&1)"
  if [ $? -ne 1 ] || ! echo "$OUT" | grep -q "\[D$r\]"; then
    fail "injected D$r violation not caught:"$'\n'"$OUT"
  fi
}
inject 1 'int injected_entropy() { std::random_device rd; return (int)rd(); }'
inject 2 'std::unordered_map<int, int> injected_map;'
inject 3 'struct Injected { fixture::Scheduler s_; rsf::core::SlotPool<fixture::Flow> pool_;
  void go(unsigned i) { s_.schedule_at(1, [this, i] { pool_[i].started = 3; }); } };'
inject 4 'void injected(fixture::Scheduler& s, std::function<void()> hot) { s.schedule_at(1, hot); }'
inject 5 'void injected(fixture::Counters& c) { c.add("net.injected_counter"); }'

# ---- 5. annotation hygiene end-to-end: a malformed escape both fires
# D0 and fails to suppress the finding it decorates ----
cat > "$TMP/malformed.cpp" <<'EOF'
#include <unordered_map>
struct S {
  // rsf-lint: order-insensitive()
  std::unordered_map<int, int> m_;
};
EOF
OUT="$("$LINT" --metrics-doc "$DOC" "$TMP/malformed.cpp" 2>&1)"
if [ $? -ne 1 ] || ! echo "$OUT" | grep -q "\[D0\]" || ! echo "$OUT" | grep -q "\[D2\]"; then
  fail "malformed annotation must fire D0 and not suppress D2:"$'\n'"$OUT"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "rsf-lint fixtures: $FAILURES check(s) failed" >&2
  exit 1
fi
echo "rsf-lint fixtures: all checks passed"
