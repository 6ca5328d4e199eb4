#!/usr/bin/env bash
# Runs tests selected by name, failing if any name filter selects none.
# `cargo test` exits 0 on "running 0 tests", so a step that runs a test
# by name would pass silently once the test is renamed or deleted. This
# lists each filter's matches (`-- --list <filter>`) first and exits 1 on
# a filter that matches nothing; then it runs every filter in one
# `cargo test`.
#
#   scripts/test_named.sh <cargo test args> -- <filter>...
#   scripts/test_named.sh -p clio --test full_system --locked -- incast_corruption_storm
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
[ "${1:-}" = "--" ] && shift
[ $# -gt 0 ] || { echo "usage: scripts/test_named.sh <cargo test args> -- <filter>..." >&2; exit 2; }

for filter in "$@"; do
  n="$(cargo test "${args[@]}" -- --list "$filter" | grep -c ': test$' || true)"
  if [ "$n" -eq 0 ]; then
    echo "test_named: filter '$filter' selects no test in: cargo test ${args[*]}" >&2
    exit 1
  fi
  echo "test_named: filter '$filter' selects $n test(s)"
done
cargo test "${args[@]}" -- "$@"
