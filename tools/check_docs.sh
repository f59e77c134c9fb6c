#!/usr/bin/env bash
# Docs hygiene gate (run by the CI docs job, and locally any time):
#
#   1. every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   2. every registry metric name mentioned in src/ is documented in
#      docs/METRICS.md — new counters must land with their docs — and
#      every metric row there is still named in src/, so a deleted
#      counter takes its row with it.
#
# Part 2 is rsf-lint rule D5 (tools/lint/): the lint pass owns the
# quoted dotted-name convention ("net.retransmits", ...), the link<N>
# normalization and the substring match, so this script delegates to
# it — an existing build-tree binary when one is around, else a
# throwaway compile of the dependency-free token frontend.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# --- 1. internal links ---
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  while IFS= read -r link; do
    target="${link%%#*}"
    [ -z "$target" ] && continue
    # Strictly relative to the containing file — that is how GitHub
    # renders it; a root-relative fallback would hide broken links.
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK: $doc -> $link"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//' |
           grep -vE '^(https?:|mailto:|#)' || true)
done

# --- 2. metric coverage (rsf-lint rule D5) ---
lint_bin=""
for candidate in build/tools/lint/rsf-lint build*/tools/lint/rsf-lint; do
  if [ -x "$candidate" ]; then
    lint_bin="$candidate"
    break
  fi
done
if [ -z "$lint_bin" ]; then
  lint_bin=$(mktemp -t rsf-lint.XXXXXX)
  trap 'rm -f "$lint_bin"' EXIT
  c++ -std=c++20 -O1 -o "$lint_bin" \
      tools/lint/lexer.cpp tools/lint/rules.cpp tools/lint/main.cpp
fi
if ! "$lint_bin" --rule D5 --metrics-doc docs/METRICS.md --src-root src; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
