#!/usr/bin/env bash
# The committed host number: sync_small's host_ops_per_s and
# host_mc_states_per_s of the working tree, against the benchmark's first
# commit (6fb5124, the base) measured on the same box in the same
# session, appended to BENCH_host.json as one entry.
#
#   scripts/bench_host.sh --pr N
#   scripts/bench_host.sh --check
#
#   --pr       the PR the entry is for; it must be above every PR the
#              file already holds
#   --check    only validate BENCH_host.json: every entry holds every
#              field, and PR numbers increase
#
# Exports the base with `git archive` into target/bench_host/base and
# builds both benchmarks, each into its own target directory under
# target/bench_host/. Every entry is measured the same way, so entries
# compare: 10 alternating pairs of 10 s runs at seed 7, each run with
# `--workload sync_small --trace 0`. The entry records
# the PR, the commit the working tree sits on, the base, the box (nproc,
# CPU model), and per metric the working tree's median and interquartile
# range, the base's, and the ratio of the two medians. The JSON line of
# every run is left in target/bench_host/out.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_host.sh --pr N | --check"
pairs=10 seconds=10 seed=7
pr="" check=0
while [ $# -gt 0 ]; do
  case "$1" in
    --pr) pr="$2"; shift 2 ;;
    --check) check=1; shift ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

# check [<new entry JSON>]: validates BENCH_host.json, with the new entry
# appended when one is given, and writes it back in that case.
check() {
  python3 - "$@" <<'EOF'
import json, sys

FILE = "BENCH_host.json"
FIELDS = ("pr", "parent", "base", "source", "box", "workload", "seed", "pairs", "seconds",
          "host_ops_per_s", "host_mc_states_per_s")
BOX = ("nproc", "cpu")
METRIC = ("median", "iqr", "base_median", "base_iqr", "ratio_to_base")

entries = json.load(open(FILE))
if len(sys.argv) > 1:
    entries.append(json.loads(sys.argv[1]))
bad = []
last = None
for i, e in enumerate(entries):
    where = f"entry {i} (PR {e.get('pr')})"
    missing = [f for f in FIELDS if f not in e]
    missing += [f"box.{f}" for f in BOX if f not in e.get("box", {})]
    for m in ("host_ops_per_s", "host_mc_states_per_s"):
        missing += [f"{m}.{f}" for f in METRIC if f not in (e.get(m) or {})]
    if missing:
        bad.append(f"{where}: missing {', '.join(missing)}")
        continue
    if not isinstance(e["pr"], int) or (last is not None and e["pr"] <= last):
        bad.append(f"{where}: PR numbers must increase (previous {last})")
    last = e["pr"] if isinstance(e["pr"], int) else last
    measured = e["source"] == "measured"
    if not measured and not e["source"].startswith("quoted from CHANGES.md"):
        bad.append(f"{where}: source is neither 'measured' nor 'quoted from CHANGES.md ...'")
    # A quoted entry holds what its CHANGES entry quoted (null elsewhere);
    # a measured one holds every number.
    numbers = [e[m][f] for m in ("host_ops_per_s", "host_mc_states_per_s") for f in METRIC]
    if measured and any(v is None for v in numbers + [e["box"]["nproc"], e["box"]["cpu"]]):
        bad.append(f"{where}: a measured entry has a null field")
    if all(e[m]["ratio_to_base"] is None for m in ("host_ops_per_s", "host_mc_states_per_s")):
        bad.append(f"{where}: no ratio to the base")
if bad:
    print(f"{FILE} is not valid:\n  " + "\n  ".join(bad))
    sys.exit(1)
if len(sys.argv) > 1:
    with open(FILE, "w") as f:
        json.dump(entries, f, indent=2)
        f.write("\n")
    print(f"{FILE}: appended PR {entries[-1]['pr']}")
else:
    print(f"{FILE}: {len(entries)} entries valid")
EOF
}

if [ "$check" = 1 ]; then
  check
  exit
fi
[ -n "$pr" ] || { echo "$usage" >&2; exit 2; }
python3 - "$pr" <<'EOF'
import json, sys
prs = [e["pr"] for e in json.load(open("BENCH_host.json"))]
if prs and int(sys.argv[1]) <= max(prs):
    sys.exit(f"--pr {sys.argv[1]}: BENCH_host.json already holds PR {max(prs)}")
EOF

base=$(git rev-parse 6fb5124)
root="$PWD/target/bench_host"
out="$root/out"
rm -rf "$out" "$root/base"
mkdir -p "$out" "$root/base"
# The archive's file times are the commit's, so rebuilding an earlier
# export of the same commit is a no-op.
git archive "$base" | tar -x -C "$root/base"
build() {
  CARGO_TARGET_DIR="$2" cargo build --release --locked --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}
build "$root/base" "$root/base-target"
build "$PWD" "$root/tree-target"

run() {
  "$root/$1-target/release/clio_benchmark" --workload sync_small --seed "$seed" \
    --seconds "$seconds" --trace 0 2>>"$out/stderr.log" | tail -n 1 >>"$out/$1.json"
}
for i in $(seq 1 "$pairs"); do
  echo "pair $i/$pairs, --seconds $seconds" >&2
  if [ $((i % 2)) -eq 1 ]; then run base; run tree; else run tree; run base; fi
done

entry=$(python3 - "$out" "$pr" "$(git rev-parse HEAD)" "$base" "$(nproc)" "$seed" "$pairs" "$seconds" <<'EOF'
import json, statistics, sys

out, pr, parent, base, nproc, seed, pairs, seconds = sys.argv[1:]
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), None)
runs = {side: [json.loads(l) for l in open(f"{out}/{side}.json") if l.strip()]
        for side in ("tree", "base")}
if any(len(r) != int(pairs) for r in runs.values()):
    sys.exit("a timed run printed no result (see stderr.log)")


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return round(statistics.median(values), 1), round(q[2] - q[0], 1)


entry = {"pr": int(pr), "parent": parent, "base": base, "source": "measured",
         "box": {"nproc": int(nproc), "cpu": cpu},
         "workload": "sync_small", "seed": int(seed), "pairs": int(pairs),
         "seconds": float(seconds)}
for m in ("host_ops_per_s", "host_mc_states_per_s"):
    tree, old = ([r["metrics"][m]["value"] for r in runs[s]] for s in ("tree", "base"))
    (med, iqr), (base_med, base_iqr) = summary(tree), summary(old)
    entry[m] = {"median": med, "iqr": iqr, "base_median": base_med, "base_iqr": base_iqr,
                "ratio_to_base": round(med / base_med, 3)}
print(json.dumps(entry))
EOF
)
echo "$entry"
check "$entry"
