#!/usr/bin/env bash
# Non-test source size: lines of every crates/*/src/**/*.rs up to the
# file's first `#[cfg(test)]` (blank lines and comments included — it is a
# size, not a statement count), per file and in total. The number CHANGES
# entries quote for "non-test lines under crates/*/src". The vendored shims
# (vendor/*/src) are counted the same way and reported as one total per
# shim, beside the crates total.
#
#   scripts/loc.sh             # per-file counts and the total, then the shims
#   scripts/loc.sh <base-ref>  # only files that differ from <base-ref>:
#                              # base, head and delta per file, and in total;
#                              # then base, head and delta per shim
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # <tree dir> <source dir glob> -> "<lines> <path>" per file, sorted by path
  (
    cd "$1"
    for d in $2; do [ -d "$d" ] && find "$d" -name '*.rs'; done | LC_ALL=C sort |
      while IFS= read -r f; do
        awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
      done
  )
}

shims() { # "<lines> vendor/<shim>/..." per file -> "<lines> vendor/<shim>" per shim
  awk '{ split($2, p, "/"); n[p[1] "/" p[2]] += $1 } END { for (s in n) print n[s], s }' |
    LC_ALL=C sort -k2
}

if [ $# -eq 0 ]; then
  count . 'crates/*/src' | awk '{ printf "%6d  %s\n", $1, $2; t += $1 } END { printf "%6d  total\n", t }'
  count . 'vendor/*/src' | shims | awk '{ printf "%6d  %s total\n", $1, $2 }'
  exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$1" crates vendor | tar -x -C "$tmp"

delta() { # "base|head <lines> <path>" lines -> base, head, delta per path
  awk '{ n[$1, $3] = $2; seen[$3] = 1 }
       END { for (f in seen) print f, n["base", f] + 0, n["head", f] + 0 }' | LC_ALL=C sort
}

{
  count "$tmp" 'crates/*/src' | sed 's/^/base /'
  count . 'crates/*/src' | sed 's/^/head /'
} | delta | awk -v ref="$1" '
    BEGIN { printf "%6s %6s %6s  file (base = %s)\n", "base", "head", "delta", ref }
    { b += $2; h += $3 }
    $2 != $3 { printf "%6d %6d %+6d  %s\n", $2, $3, $3 - $2, $1 }
    END { printf "%6d %6d %+6d  total\n", b, h, h - b }'
{
  count "$tmp" 'vendor/*/src' | shims | sed 's/^/base /'
  count . 'vendor/*/src' | shims | sed 's/^/head /'
} | delta | awk '{ printf "%6d %6d %+6d  %s total\n", $2, $3, $3 - $2, $1 }'
