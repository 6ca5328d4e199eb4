#!/usr/bin/env bash
# Grep-based docs link check: every backticked crate, path, type, config
# knob, env var or metric name referenced in docs/ARCHITECTURE.md must
# still exist in the tree. Fails listing the stale references, so the architecture tour
# cannot silently rot as the code moves.
set -u
cd "$(dirname "$0")/.."

DOC="docs/ARCHITECTURE.md"
[ -f "$DOC" ] || { echo "missing $DOC"; exit 1; }

# The registry's pinned name lists (COUNTER_NAMES / GAUGE_NAMES).
NAMES="crates/core/tests/trace_smoke.rs"

fail=0
declare -A checked

# All single-backtick tokens. Fenced code blocks are diagrams/examples,
# not references, so strip them first.
tokens=$(sed '/^```/,/^```/d' "$DOC" | grep -o '`[^`]*`' | tr -d '`' | sort -u)

while IFS= read -r tok; do
  [ -n "$tok" ] || continue
  [ -n "${checked[$tok]:-}" ] && continue
  checked[$tok]=1

  # Metric names (`cn0.transport.retries`, `mn<i>.board.nacks`): the
  # `layer.name` must be one the registry yields, i.e. appear in the name
  # lists pinned by the name-set test.
  if [[ "$tok" =~ ^(cn|mn)(0|\<i\>)\.([a-z_]+\.[a-z_]+)$ ]]; then
    if ! grep -qF "\"${BASH_REMATCH[1]}0.${BASH_REMATCH[3]}\"" "$NAMES"; then
      echo "stale metric name: \`$tok\` (not pinned in $NAMES)"
      fail=1
    fi
    continue
  fi

  # Skip prose-ish tokens: spaces, shell lines, comparisons.
  case "$tok" in
    *" "*|*"|"*|"-"*) continue ;;
  esac

  # Paths: must exist (a trailing component may name one of several
  # files, e.g. `crates/cn/tests/...` — check the literal path).
  if [[ "$tok" == */* ]]; then
    if [ ! -e "$tok" ]; then
      echo "stale path reference: \`$tok\`"
      fail=1
    fi
    continue
  fi

  # Crate names: clio_foo -> crates/foo must exist ("clio" is the root
  # facade). "vendor" is a directory.
  if [[ "$tok" =~ ^clio(_[a-z0-9_]+)?$ ]]; then
    if [ "$tok" = "clio" ]; then continue; fi
    dir="crates/${tok#clio_}"
    if [ ! -d "$dir" ]; then
      echo "stale crate reference: \`$tok\` (no $dir)"
      fail=1
    fi
    continue
  fi

  # Everything else: identifiers (types, methods, config knobs, env
  # vars). Take the last path-ish component and require it to appear
  # somewhere in the sources as a whole word.
  ident="${tok##*::}"          # Transport::check_invariants -> check_invariants
  ident="${ident%%(*}"         # rread() -> rread
  ident="${ident#.}"           # .field -> field
  [[ "$ident" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]] || continue
  if ! grep -rqw --include='*.rs' --include='*.toml' "$ident" crates src vendor 2>/dev/null; then
    echo "stale identifier reference: \`$tok\` (\"$ident\" not found in sources)"
    fail=1
  fi
done <<< "$tokens"

if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md references things that no longer exist (see above)"
  exit 1
fi

# Metric name table: each row `| `cn<i>.group` | counters | gauges |` must
# list exactly the pinned names of that group — every pinned name in its
# row, and every bare lowercase token of a row pinned.
for full in $(grep -oE '"(cn|mn)0\.[a-z_]+\.[a-z_]+"' "$NAMES" | tr -d '"'); do
  node="${full%%0.*}"; rest="${full#*.}"; group="${rest%%.*}"; name="${rest#*.}"
  if ! grep "^| \`$node<i>\.$group\` |" "$DOC" | grep -q "\`$name\`"; then
    echo "metric name table is missing $node<i>.$group.$name"
    fail=1
  fi
done
while IFS= read -r row; do
  [[ "$row" =~ ^\|\ \`(cn|mn)\<i\>\.([a-z_]+)\`\ \| ]] || continue
  node="${BASH_REMATCH[1]}"; group="${BASH_REMATCH[2]}"
  for name in $(echo "${row#*|*|}" | grep -o '`[a-z_]*`' | tr -d '`'); do
    if ! grep -qF "\"${node}0.$group.$name\"" "$NAMES"; then
      echo "metric name table lists $node<i>.$group.$name, which is not pinned in $NAMES"
      fail=1
    fi
  done
done < "$DOC"
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md metric names do not match the registry's pinned name set"
  exit 1
fi

# Stage-taxonomy completeness: every variant of clio_trace's `Stage` enum
# must appear in the doc's taxonomy table (and vice versa the table rows
# were already validated as identifiers above), so the observability tour
# cannot drift from the actual stage set.
stages=$(sed -n '/^pub enum Stage {/,/^}/p' crates/trace/src/span.rs \
  | grep -o '^    [A-Z][A-Za-z]*' | tr -d ' ')
for s in $stages; do
  if ! grep -q "^| \`$s\` |" "$DOC"; then
    echo "stage taxonomy table is missing Stage::$s"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md stage taxonomy does not match clio_trace::Stage"
  exit 1
fi

# Client-runtime tour: the async-executor section must exist and must name
# the real runtime surface, and those names must still exist in the
# sources — the quickstart leans on them.
grep -q '^## Client runtime' "$DOC" || { echo "missing '## Client runtime' section"; fail=1; }
for t in ExecDriver ProcHandle ArrivalGen SubmitQueued block_on; do
  if ! grep -qw "$t" "$DOC"; then
    echo "client-runtime docs missing term: $t"
    fail=1
  fi
  if ! grep -rqw --include='*.rs' "$t" crates 2>/dev/null; then
    echo "client-runtime term not in sources: $t"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md client-runtime section is stale (see above)"
  exit 1
fi

# Failure-model tour: the chaos/deadline section must exist and
# its load-bearing names must still exist in the sources.
grep -q '^## Failure model' "$DOC" || { echo "missing '## Failure model' section"; fail=1; }
for t in ChaosSchedule StormConfig BoardPower FaultInjector \
         board_restarts dropped_while_down \
         Unreachable DeadlineExceeded with_deadline; do
  if ! grep -qw "$t" "$DOC"; then
    echo "failure-model docs missing term: $t"
    fail=1
  fi
  if ! grep -rqw --include='*.rs' "$t" crates 2>/dev/null; then
    echo "failure-model term not in sources: $t"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md failure-model section is stale (see above)"
  exit 1
fi
# Simulator-performance tour: the section must exist, and the names it
# leans on — the id tables, the queue's moving parts, the two gate tests —
# must still exist in the sources.
grep -q '^## Simulator performance' "$DOC" || { echo "missing '## Simulator performance' section"; fail=1; }
for t in IdMap IdSet IdHasher EventId pop_due drain_released read_response_fragments \
         alloc_budget digest_pins; do
  if ! grep -qw "$t" "$DOC"; then
    echo "simulator-performance docs missing term: $t"
    fail=1
  fi
  if ! grep -rqw --include='*.rs' "$t" crates 2>/dev/null \
     && [ ! -e "crates/core/tests/$t.rs" ]; then
    echo "simulator-performance term not in sources: $t"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md simulator-performance section is stale (see above)"
  exit 1
fi
# Checker-fork tour: "What a fork copies" explains the copy-on-write actor
# wrapper by name, so the section must name it and the harness must still
# hold its actors in it.
sed -n '/^### The checker: one fork per search node/,/^### /p' "$DOC" | grep -qw 'Shared' \
  || { echo "checker-fork docs do not name \`Shared\`"; fail=1; }
grep -q '^struct Shared<' crates/mc/src/harness.rs \
  || { echo "crates/mc/src/harness.rs no longer defines \`Shared\`"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md checker-fork section is stale (see above)"
  exit 1
fi
# Migration tour: "Cluster & sharding" explains the migration protocol by
# its one machine, so the section must name it and migrate.rs must still
# define it.
sed -n '/^## Cluster & sharding/,/^## /p' "$DOC" | grep -qw 'Migrations' \
  || { echo "cluster docs do not name \`Migrations\`"; fail=1; }
grep -q '^pub struct Migrations' crates/mn/src/migrate.rs \
  || { echo "crates/mn/src/migrate.rs no longer defines \`Migrations\`"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md cluster section is stale (see above)"
  exit 1
fi
# One refusal policy on the CN: the transport completes a `Conflict` like
# any other status and keeps no parking of its own; CLib::finish backs off
# and re-issues on its own timer.
if grep -nE 'Status::Conflict|ConflictRetry|parked' crates/cn/src/transport.rs; then
  echo "crates/cn/src/transport.rs handles Conflict refusals itself (above)"
  fail=1
fi
grep -q '^pub struct ConflictRetry' crates/cn/src/clib.rs \
  || { echo "crates/cn/src/clib.rs no longer defines CLib's \`ConflictRetry\` timer"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "the Conflict policy left CLib::finish (see above)"
  exit 1
fi
# One admission step on the MN: the board asks the migrations and the
# dedup buffer from one call site each (before handle_request's dispatch),
# and the offload environment admits its accesses through the same
# refusal.
for call in '.refusal(' 'dedup_hit('; do
  sites=$(grep -vE '^[[:space:]]*//|fn dedup_hit\(' crates/mn/src/board.rs | grep -cF "$call")
  if [ "$sites" -ne 1 ]; then
    echo "crates/mn/src/board.rs calls $call from $sites sites, not one admission step"
    fail=1
  fi
done
grep -qF '.refusal(' crates/mn/src/extend.rs \
  || { echo "crates/mn/src/extend.rs does not admit offload accesses (no .refusal( call)"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "refusal or dedup left the MN's one admission step (see above)"
  exit 1
fi
# Wake by index: the executor's wake path takes no lock and counts no
# reference. No code line of exec.rs before its tests names a Mutex, an
# Arc, a Wake impl or the context's waker.
if awk '/^#\[cfg\(test\)\]/ { exit }
        !/^[[:space:]]*\/\// && /Mutex|Arc|impl Wake|\.waker\(\)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/core/src/exec.rs; then
  echo "crates/core/src/exec.rs wakes tasks through a Waker, an Arc or a Mutex (above)"
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  echo "the executor's wake path is no longer by task index (see above)"
  exit 1
fi
# One MAC/PHY rule on the MN: the board is the one module that charges a
# crossing. No code line before the tests of a file under crates/*/src
# reads `mac_phy_latency`, other than its definition and the board's.
for f in $(find crates/*/src -name '*.rs' | sort); do
  case "$f" in crates/hw/src/config.rs|crates/mn/src/board.rs) continue ;; esac
  if awk '/^#\[cfg\(test\)\]/ { exit }
          !/^[[:space:]]*\/\// && /mac_phy_latency/ { print FILENAME ":" FNR ": " $0; hit = 1 }
          END { exit !hit }' "$f"; then
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "a MAC/PHY crossing is charged outside crates/mn/src/board.rs (above)"
  exit 1
fi
# Re-measuring: the A/B script perf changes report with must exist, and
# the section that tells how to compare two commits must name it.
sed -n '/^### Re-measuring/,/^## /p' "$DOC" | grep -q 'scripts/ab\.sh' \
  || { echo "the Re-measuring docs do not name scripts/ab.sh"; fail=1; }
[ -x scripts/ab.sh ] || { echo "scripts/ab.sh is missing or not executable"; fail=1; }
if [ "$fail" -ne 0 ]; then
  echo "docs/ARCHITECTURE.md re-measuring section is stale (see above)"
  exit 1
fi
# PAPER.md's code references. Every `crates/…:N[-M]`, and a bare
# `:N[-M]` continuing the last file named on its line, must name lines
# that exist. In the calibration table, at least one identifier a row
# backticks (the last `::` component) must appear in the lines it cites,
# so a reference that drifted off its constant fails here.
PAPER="PAPER.md"
in_cal=0
lineno=0
while IFS= read -r line; do
  lineno=$((lineno + 1))
  case "$line" in
    "### Calibration constants"*) in_cal=1; continue ;;
    "#"*) in_cal=0; continue ;;
  esac
  file=""; cited=""; idents=()
  while IFS= read -r tok; do
    if [[ "$tok" =~ ^(crates/[^:]+):([0-9]+)(-([0-9]+))?$ ]]; then
      file=${BASH_REMATCH[1]}; lo=${BASH_REMATCH[2]}; hi=${BASH_REMATCH[4]:-$lo}
    elif [[ -n "$file" && "$tok" =~ ^:([0-9]+)(-([0-9]+))?$ ]]; then
      lo=${BASH_REMATCH[1]}; hi=${BASH_REMATCH[3]:-$lo}
    else
      idents+=("${tok##*::}")
      continue
    fi
    if [ ! -f "$file" ]; then
      echo "$PAPER:$lineno: \`$tok\` cites a missing file ($file)"
      fail=1
    elif [ "$lo" -lt 1 ] || [ "$hi" -lt "$lo" ] || [ "$hi" -gt "$(wc -l < "$file")" ]; then
      echo "$PAPER:$lineno: \`$tok\` cites lines $lo-$hi of $file, which has $(wc -l < "$file")"
      fail=1
    else
      cited+=$(sed -n "${lo},${hi}p" "$file")$'\n'
    fi
  done < <(grep -o '`[^`]*`' <<<"$line" | tr -d '`')
  [ "$in_cal" -eq 1 ] && [[ "$line" == "|"* ]] && [ -n "$cited" ] || continue
  found=0
  for id in "${idents[@]}"; do
    [[ "$id" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]] && grep -qw "$id" <<<"$cited" && { found=1; break; }
  done
  if [ "$found" -eq 0 ]; then
    echo "$PAPER:$lineno: no identifier the row names appears in the lines it cites"
    fail=1
  fi
done < "$PAPER"
if [ "$fail" -ne 0 ]; then
  echo "PAPER.md cites code lines that moved or do not exist (see above)"
  exit 1
fi
echo "docs link check: OK"
