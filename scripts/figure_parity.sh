#!/usr/bin/env bash
# Figure parity: a refactor must not move a printed number. Exports
# <base-ref> into a temp directory and runs, on that tree and on the
# working tree, each tree's own paper-figure benches (`fig*`, `tab_*`),
# `micro_batching` and `micro_openloop -- --smoke` (each tree with its own
# target dir — cargo's fingerprints key on workspace-relative paths). Then
# diffs stdout bench by bench; a bench that only one tree has is listed as
# `added` or `removed`. Exits non-zero listing every bench whose output
# differs or that only one tree has.
#
#   scripts/figure_parity.sh <base-ref>
#
# Honours TMPDIR; set KEEP=1 to keep the temp directory (both trees'
# outputs under out/) for inspection.
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/figure_parity.sh <base-ref>}"
tmp="$(mktemp -d)"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/out/base" "$tmp/out/head"
git archive "$base" | tar -x -C "$tmp/base"

run_tree() { # <tree dir> <label>
  local dir="$1" label="$2" b
  (
    cd "$dir"
    export CARGO_TARGET_DIR="$tmp/target-$label"
    cargo bench --no-run -q -p clio_bench --locked
    for f in crates/bench/benches/{fig,tab_}*.rs crates/bench/benches/micro_batching.rs; do
      b="$(basename "$f" .rs)"
      cargo bench -q -p clio_bench --bench "$b" --locked >"$tmp/out/$label/$b.txt"
    done
    cargo bench -q -p clio_bench --bench micro_openloop --locked -- --smoke \
      >"$tmp/out/$label/micro_openloop.txt"
  )
}

run_tree "$tmp/base" base
run_tree "$PWD" head

fail=0
for b in $(for f in "$tmp"/out/*/*.txt; do basename "$f" .txt; done | sort -u); do
  if [ ! -e "$tmp/out/head/$b.txt" ]; then
    echo "figure parity: $b removed since $base"
    fail=1
  elif [ ! -e "$tmp/out/base/$b.txt" ]; then
    echo "figure parity: $b added since $base"
    fail=1
  elif ! diff -u "$tmp/out/base/$b.txt" "$tmp/out/head/$b.txt"; then
    echo "figure parity: $b differs from $base"
    fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "figure parity vs $base: OK ($(ls "$tmp/out/base" | wc -l) benches identical)"
exit "$fail"
