#!/usr/bin/env bash
# Non-test source size: lines of every crates/*/src/**/*.rs up to the
# file's first `#[cfg(test)]` (blank lines and comments included — it is a
# size, not a statement count), per file and in total. The number CHANGES
# entries quote for "non-test lines under crates/*/src".
#
#   scripts/loc.sh             # per-file counts and the total
#   scripts/loc.sh <base-ref>  # only files that differ from <base-ref>:
#                              # base, head and delta per file, and in total
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # <tree dir> -> "<lines> <path>" per file, sorted by path
  (
    cd "$1"
    find crates/*/src -name '*.rs' | LC_ALL=C sort | while IFS= read -r f; do
      awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
    done
  )
}

if [ $# -eq 0 ]; then
  count . | awk '{ printf "%6d  %s\n", $1, $2; t += $1 } END { printf "%6d  total\n", t }'
  exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$1" crates | tar -x -C "$tmp"
{
  count "$tmp" | sed 's/^/base /'
  count . | sed 's/^/head /'
} | awk '{ n[$1, $3] = $2; seen[$3] = 1 }
         END { for (f in seen) print f, n["base", f] + 0, n["head", f] + 0 }' |
  LC_ALL=C sort | awk -v ref="$1" '
    BEGIN { printf "%6s %6s %6s  file (base = %s)\n", "base", "head", "delta", ref }
    { b += $2; h += $3 }
    $2 != $3 { printf "%6d %6d %+6d  %s\n", $2, $3, $3 - $2, $1 }
    END { printf "%6d %6d %+6d  total\n", b, h, h - b }'
