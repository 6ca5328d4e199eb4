#!/usr/bin/env bash
# Config knobs nothing varies: every `pub` field of CLibConfig,
# CBoardHwConfig, CBoardConfig, ClusterConfig and the baselines' RnicParams
# and HerdParams must be set in at least two places, because its default
# preset is one. A setting site is a
# struct-literal `field:` line other than the declaration, or a `.field =`
# assignment, in any tracked `.rs` file outside vendor/ (crates with their
# tests and benches, tests/, examples/, src/ and benchmark/); comment lines
# do not count. A field set only by its preset is a constant: make it an
# associated `const` of its struct. Prints `Struct::field (sites)` per
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
  # ROADMAP directions 2 and 7 vary it on either side of the paper's
  # 3 x TIMEOUT x bandwidth sizing rule.
  [dedup_buffer_bytes]=1
  # benchmark/src/kernels.rs reads it, and benchmark/ changes only in a
  # benchmark PR.
  [pt_slots_per_bucket]=1
)

structs=(
  "crates/cn/src/config.rs CLibConfig"
  "crates/hw/src/config.rs CBoardHwConfig"
  "crates/mn/src/config.rs CBoardConfig"
  "crates/core/src/cluster.rs ClusterConfig"
  "crates/baselines/src/rdma.rs RnicParams"
  "crates/baselines/src/herd.rs HerdParams"
)

mapfile -t files < <(git ls-files -- '*.rs' ':!:vendor/')
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
    sites=$(grep -hE "(^|[^A-Za-z0-9_])$f:([^:]|\$)|\\.$f[ \t]*=([^=]|\$)" "${files[@]}" \
      | grep -cvE "^[ \t]*//|^[ \t]*pub $f:" || true)
    if [ "$sites" -lt 2 ]; then
      echo "$name::$f ($sites)"
      bad=1
    fi
  done
done
exit "$bad"
