#!/usr/bin/env bash
# Figure parity: a refactor must not move a printed number. Exports
# <base-ref> into a temp directory, runs every paper-figure bench,
# `tab_capex`, `micro_batching` and `micro_openloop -- --smoke` on that
# tree and on the working tree (each with its own target dir — cargo's
# fingerprints key on workspace-relative paths), and diffs stdout bench by
# bench. Exits non-zero listing every bench whose output differs.
#
#   scripts/figure_parity.sh <base-ref>
#
# Honours TMPDIR; set KEEP=1 to keep the temp directory (both trees'
# outputs under out/) for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/figure_parity.sh <base-ref>}"
tmp="$(mktemp -d)"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/out/base" "$tmp/out/head"
git archive "$base" | tar -x -C "$tmp/base"

benches=$(cd crates/bench/benches && ls fig*.rs tab_capex.rs micro_batching.rs | sed 's/\.rs$//')

run_tree() { # <tree dir> <label>
  local dir="$1" label="$2" b
  (
    cd "$dir"
    export CARGO_TARGET_DIR="$tmp/target-$label"
    cargo bench --no-run -q -p clio_bench --locked
    for b in $benches; do
      cargo bench -q -p clio_bench --bench "$b" --locked >"$tmp/out/$label/$b.txt"
    done
    cargo bench -q -p clio_bench --bench micro_openloop --locked -- --smoke \
      >"$tmp/out/$label/micro_openloop.txt"
  )
}

run_tree "$tmp/base" base
run_tree "$PWD" head

fail=0
for f in "$tmp"/out/base/*.txt; do
  b="$(basename "$f" .txt)"
  if ! diff -u "$f" "$tmp/out/head/$b.txt"; then
    echo "figure parity: $b differs from $base"
    fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "figure parity vs $base: OK ($(ls "$tmp/out/base" | wc -l) benches identical)"
exit "$fail"
