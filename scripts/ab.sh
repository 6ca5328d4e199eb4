#!/usr/bin/env bash
# A/B of the committed benchmark: the working tree (the change) against
# <rev> (the parent), over alternating pairs of runs.
#
#   scripts/ab.sh <rev> [--workload W] [--pairs N] [--seconds S] [--seed K]
#
#   <rev>       the revision to compare against, e.g. HEAD~1 (HEAD compares
#               the working tree's build with a build of the commit)
#   --workload  one BENCHMARK.json workload (default: every workload)
#   --pairs     timed pairs per workload (default 10)
#   --seconds   each timed run's --seconds (default 10)
#   --seed      the runs' --seed (default 7)
#
# Exports <rev> with `git archive` into target/ab/<sha> and builds its
# benchmark there into a target directory of its own; the working tree's
# benchmark builds where benchmark/run.sh builds it. Nothing under
# benchmark/ is touched.
#
# Host side: per workload, N pairs of `--trace 0 --seconds S` runs, the
# two builds alternating which goes first. For every end-to-end metric it
# prints the parent's and the change's medians, the parent's interquartile
# range, their ratio (change / parent) and, for host-clock metrics, the
# pairs the change won (by the metric's "better" in BENCHMARK.json). Host
# metrics are printed, never judged.
#
# Virtual side: per workload, each build runs `--rounds 120` (the rounds
# of benchmark/run.sh --check-repeat) once untraced and once traced.
# Every metric that is not a host-clock reading (the `sim_*` metrics,
# `sim.digest`, the counts) and the attempted and failed op counts must be
# identical between the builds, and every run must report itself correct;
# otherwise the script exits 1. The report and the JSON line of every run
# are left in target/ab/out.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh <rev> [--workload W] [--pairs N] [--seconds S] [--seed K]"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev="$1"; shift
workload="" pairs=10 seconds=10 seed=7
rounds=120
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

sha=$(git rev-parse --verify "$rev^{commit}")
root="$PWD/target/ab"
base="$root/$sha"
out="$root/out"
rm -rf "$out" "$base"
mkdir -p "$out" "$base"
# The archive's file times are the commit's, so a rebuild of an earlier
# export of the same commit is a no-op.
git archive "$sha" | tar -x -C "$base"

build() {
  cargo build --release --locked --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
CARGO_TARGET_DIR="$base-target" build "$base"
build "$PWD"
parent_bin="$base-target/release/clio_benchmark"
change_bin="${CARGO_TARGET_DIR:-$PWD/benchmark/target}/release/clio_benchmark"

if [ -n "$workload" ]; then
  workloads="$workload"
else
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

# run <side> <file> <flags...>: one benchmark process, its JSON line
# appended to $out/<file>.
run() {
  local side="$1" file="$2" bin
  shift 2
  if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
  "$bin" "$@" 2>>"$out/stderr.log" | tail -n 1 >>"$out/$file" || true
}

echo "A/B: parent $rev ($sha) vs the working tree; seed $seed"
for w in $workloads; do
  echo "$w: virtual side, --rounds $rounds" >&2
  for side in parent change; do
    for trace in 0 1; do
      run "$side" "$w.$side.virtual" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --rounds "$rounds" --trace "$trace"
    done
  done
  for i in $(seq 1 "$pairs"); do
    echo "$w: pair $i/$pairs, --seconds $seconds" >&2
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$w.$side.host" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
    done
  done
done

python3 - "$out" "$pairs" $workloads <<'EOF' | tee "$out/report.txt"
import json, statistics, sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
contract = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in contract["end_to_end"]}


def runs(name):
    with open(f"{out}/{name}") as f:
        return [json.loads(line) for line in f if line.strip()]


def host_clock(name, unit):
    """Wall-clock readings differ run to run (benchmark/suite.py's rule)."""
    return name == "setup_s" or name.startswith("host_") or unit.startswith("host_")


bad = []
for w in workloads:
    sides = {s: runs(f"{w}.{s}.host") for s in ("parent", "change")}
    if any(len(r) != pairs for r in sides.values()):
        bad.append(f"{w}: a timed run printed no result (see stderr.log)")
        continue
    print(f"\n{w}: {pairs} pair(s)")
    print(f"  {'metric':22s} {'parent':>12s} {'parent IQR':>12s} {'change':>12s} {'ratio':>7s}  won")
    for name in better:
        a = [r["metrics"][name]["value"] for r in sides["parent"]]
        b = [r["metrics"][name]["value"] for r in sides["change"]]
        won = sum((y > x) if better[name] == "higher" else (y < x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        q = statistics.quantiles(a, n=4) if len(a) > 1 else [ma, ma, ma]
        ratio = f"{mb / ma:7.3f}" if ma else "    n/a"
        # A timed run's virtual metrics move with its round count: they are
        # judged on the virtual side below, not pair by pair.
        unit = sides["parent"][0]["metrics"][name]["unit"]
        won = f"{won}/{pairs}" if host_clock(name, unit) else "-"
        print(f"  {name:22s} {ma:12.6g} {q[2] - q[0]:12.4g} {mb:12.6g} {ratio}  {won}")
    virtual = {s: runs(f"{w}.{s}.virtual") for s in ("parent", "change")}
    if any(len(v) != 2 for v in virtual.values()):
        bad.append(f"{w}: a virtual-side run printed no result (see stderr.log)")
        continue
    if not all(r["correct"] for r in sum([*virtual.values(), *sides.values()], [])):
        bad.append(f"{w}: a run was incorrect (see stderr.log)")
    same = 0
    for pa, ch in zip(virtual["parent"], virtual["change"]):
        for count in ("attempted", "failed"):
            if pa[count] != ch[count]:
                bad.append(f"{w}: {count} ops differ: parent {pa[count]}, change {ch[count]}")
        for name, m in pa["metrics"].items():
            if host_clock(name, m["unit"]):
                continue
            got = ch["metrics"].get(name, {}).get("value")
            if got != m["value"]:
                bad.append(f"{w}: {name} differs: parent {m['value']}, change {got}")
            else:
                same += 1
    print(f"  virtual side: {same} metrics compared at --rounds")

if bad:
    print("\nA/B failed:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nA/B passed: every virtual metric and op count identical, every run correct")
EOF
