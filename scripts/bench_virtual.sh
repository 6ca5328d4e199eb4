#!/usr/bin/env bash
# Writes BENCH_virtual.json: the virtual half of the committed benchmark,
# every number that must repeat exactly from one run to the next.
#
#   scripts/bench_virtual.sh
#
# Builds the benchmark (benchmark/run.sh's build) and runs every
# BENCHMARK.json workload once per trace mode at --rounds 120 --seed 7.
# From each run it keeps the attempted and failed op counts and every
# metric that is not a host-clock reading (benchmark/suite.py's rule): the
# `sim_*` metrics, `sim.digest` and the counts. A change that moves one of
# them changes the modeled system; CI regenerates the file and fails on
# any diff, so such a change must update it in the same commit and say
# why.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-$PWD/benchmark/target}/release/clio_benchmark"

python3 - "$bin" <<'EOF'
import json, subprocess, sys

SEED, ROUNDS = 7, 120
binary = sys.argv[1]
contract = json.load(open("BENCHMARK.json"))


def host_clock(name, unit):
    return name == "setup_s" or name.startswith("host_") or unit.startswith("host_")


workloads = {}
for w in (w["name"] for w in contract["workloads"]):
    modes = {}
    for trace in (0, 1):
        cmd = [binary, "--workload", w, "--seed", str(SEED), "--trace", str(trace),
               "--rounds", str(ROUNDS)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or not result or not result["correct"]:
            sys.exit(f"{w} (trace {trace}) failed: exit code {proc.returncode}")
        modes[f"trace{trace}"] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: m["value"]
                for name, m in sorted(result["metrics"].items())
                if not host_clock(name, m["unit"])
            },
        }
        print(f"{w} (trace {trace}): {len(modes[f'trace{trace}']['metrics'])} metrics", file=sys.stderr)
    workloads[w] = modes

with open("BENCH_virtual.json", "w") as f:
    json.dump({"seed": SEED, "rounds": ROUNDS, "workloads": workloads}, f, indent=2)
    f.write("\n")
EOF
