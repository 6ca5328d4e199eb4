#!/usr/bin/env bash
# Samples where the benchmark's host time goes: a frame-pointer profile of
# one `clio_benchmark --trace 0` run (the untraced rounds plus the checker
# passes), reported as self %, inclusive % and innermost-inlined % of the
# samples whose stack holds the anchor frame.
#
#   scripts/profile.sh [--workload W] [--seconds S] [--anchor FRAME]
#                      [--tree FRAME]
#
#   --workload  a BENCHMARK.json workload (default sync_small)
#   --seconds   the run's --seconds (default 5)
#   --anchor    keep samples with a frame whose name contains FRAME, e.g.
#               clio_mc::explorer::explore (the checker) or
#               clio_benchmark::workloads::Instance::run_round (the data
#               path); default: every sample
#   --tree      instead of the three tables, print the callee tree under
#               the frame whose name contains FRAME (call paths under 1 %
#               of the anchored samples left out)
#
# Builds the benchmark with frame pointers and line tables into
# target/profile (its own target directory, so the benchmark's build is
# untouched), compiles scripts/profile_shim.c and preloads it: a 100 us
# CLOCK_MONOTONIC timer samples the pc and the frame-pointer chain. Needs
# cc, nm, addr2line and python3; x86-64 Linux only. Samples and the
# report are left in target/profile/out.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=sync_small seconds=5 anchor="" tree=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --anchor) anchor="$2"; shift 2 ;;
    --tree) tree=(--tree "$2"); shift 2 ;;
    *) echo "usage: scripts/profile.sh [--workload W] [--seconds S] [--anchor FRAME] [--tree FRAME]" >&2; exit 2 ;;
  esac
done

target="$PWD/target/profile"
out="$target/out"
mkdir -p "$out"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  CARGO_TARGET_DIR="$target" \
  cargo build --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml
cc -O2 -shared -fPIC -o "$out/shim.so" scripts/profile_shim.c -lrt

exe="$target/release/clio_benchmark"
CLIO_PROFILE_OUT="$out/samples" LD_PRELOAD="$out/shim.so" \
  "$exe" --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 >"$out/run.json"
python3 scripts/profile_report.py "$out/samples" "$(readlink -f "$exe")" --anchor "$anchor" \
  ${tree[@]+"${tree[@]}"} | tee "$out/report.txt"
