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
for t in ExecDriver ProcHandle ArrivalGen runtime_inflight_budget SubmitQueued block_on; do
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

# Failure-model tour: the chaos/breaker/deadline section must exist and
# its load-bearing names must still exist in the sources.
grep -q '^## Failure model' "$DOC" || { echo "missing '## Failure model' section"; fail=1; }
for t in ChaosSchedule StormConfig BoardPower FaultInjector peer_health \
         circuit_open_total board_restarts dropped_while_down \
         Unreachable DeadlineExceeded breaker_threshold with_deadline; do
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
echo "docs link check: OK"
