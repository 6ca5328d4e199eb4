#!/usr/bin/env bash
# Config knobs nothing varies: every `pub` field of CLibConfig,
# CBoardHwConfig, CBoardConfig, ClusterConfig, the checker's McConfig and
# the baselines' RnicParams and HerdParams must be set in at least two
# places, because its default preset is one. A setting site is a
# struct-literal `field:` line other than the declaration, or a `.field =`
# assignment (not a `.field =>` match guard), in the non-test code of a
# tracked `.rs` file outside vendor/: crates' sources and benches, src/
# and benchmark/, each up to its `#[cfg(test)]` module, the way
# unused_api.sh reads them. tests/,
# crates/*/tests/ and examples/ do not count, and neither do comment
# lines: a knob only a test sets is one no run of the system varies. A
# field set only by its preset is a constant: make it an associated
# `const` of its struct, or delete it. Prints `Struct::field (sites)` per
# offender and exits 1 if there is any.
#
# The match is by name, like unused_api.sh: a local, parameter or other
# struct's field of the same name (a `workers:`) counts as a site, so a
# dead knob can hide behind a namesake, but a knob that is set is never
# flagged.
#
#   scripts/unused_knobs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Knobs kept with one site, each with its reason.
declare -A allow=(
  # ROADMAP's at-most-once and swarm directions vary it on either side
  # of the paper's 3 x TIMEOUT x bandwidth sizing rule.
  [dedup_buffer_bytes]=1
  # benchmark/src/kernels.rs reads it, and benchmark/ changes only in a
  # benchmark PR.
  [pt_slots_per_bucket]=1
  # PAPER.md's calibration table cites it (§4.5 T4: it sizes the MN's
  # dedup buffer); tests shorten it to reach the retry path quickly.
  [request_timeout]=1
  # PAPER.md's calibration table cites it (§4.4: the window may fall
  # below one packet).
  [cwnd_min]=1
  # ROADMAP's swarm direction draws it (a small incast window).
  [iwnd_bytes]=1
  # McConfig's planted transport bug: only the checker's self-test
  # (crates/mc/tests/, the crate's doc example) sets it, to show the
  # search catches one.
  [mutation]=1
)

structs=(
  "crates/cn/src/config.rs CLibConfig"
  "crates/hw/src/config.rs CBoardHwConfig"
  "crates/mn/src/config.rs CBoardConfig"
  "crates/core/src/cluster.rs ClusterConfig"
  "crates/mc/src/explorer.rs McConfig"
  "crates/baselines/src/rdma.rs RnicParams"
  "crates/baselines/src/herd.rs HerdParams"
)

# An empty listing (outside a git checkout, say) would flag every knob.
listing=$(git ls-files -- '*.rs' ':!:vendor/' ':!:tests/' ':!:examples/' \
  ':(exclude,glob)crates/*/tests/**' 2>/dev/null) &&
  [ -n "$listing" ] || { echo "unused_knobs.sh: git ls-files listed no .rs files (not a git checkout?)" >&2; exit 1; }
mapfile -t files <<< "$listing"
# Each file's lines up to its `#[cfg(test)]` module.
code=$(awk 'FNR == 1 { test = 0 } /^[ \t]*#\[cfg\(test\)\]/ { test = 1 } !test' "${files[@]}")
bad=0
for entry in "${structs[@]}"; do
  read -r file name <<< "$entry"
  fields=$(awk -v name="$name" '
    $0 ~ "^pub struct " name " \\{" { inside = 1; next }
    inside && /^\}/ { exit }
    inside && match($0, /^[ \t]*pub [a-z_][a-z0-9_]*:/) {
      f = substr($0, RSTART, RLENGTH); sub(/^[ \t]*pub /, "", f); sub(/:$/, "", f); print f
    }' "$file")
  [ -n "$fields" ] || { echo "$file: no pub fields found for $name"; exit 1; }
  for f in $fields; do
    [ -n "${allow[$f]:-}" ] && continue
    sites=$(grep -E "(^|[^A-Za-z0-9_])$f:([^:]|\$)|\\.$f[ \t]*=([^=>]|\$)" <<< "$code" \
      | grep -cvE "^[ \t]*//|^[ \t]*pub $f:" || true)
    if [ "$sites" -lt 2 ]; then
      echo "$name::$f ($sites)"
      bad=1
    fi
  done
done
exit "$bad"
