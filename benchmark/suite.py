#!/usr/bin/env python3
"""Runs the benchmark suite: every workload, untraced then traced, each in a
fresh process, and prints every metric by name with its unit.

    benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--quick]
                     [--check-repeat]

--quick         one twentieth of the measured time, for a smoke job; no bounds.
--check-repeat  runs the suite twice on the one build with a fixed number of
                rounds, and fails unless every virtual metric, count and
                digest is identical and every end-to-end host metric agrees
                within its bound; prints the observed spread per metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Rounds per phase under --check-repeat (a count, so a seed repeats exactly).
REPEAT_ROUNDS = 120


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "clio_benchmark")


def run_once(workload, seed, trace, limit, out_dir=None):
    """One process, one checked result: (attempted, failed, {name: (value, unit)})."""
    cmd = [binary(), "--workload", workload, "--seed", str(seed), "--trace", str(trace)] + limit
    if out_dir and trace:
        cmd += ["--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} (trace {trace}) printed no result, exit code {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} (trace {trace}) is incorrect: exit code {proc.returncode}, {lines[-1]}")
    return result["attempted"], result["failed"], metrics


def run_suite(workloads, seed, limit, out_dir):
    """{workload: {metric: (value, unit)}}, end-to-end and per-layer metrics together."""
    suite = {}
    for w in workloads:
        merged = {}
        for trace in (0, 1):
            attempted, failed, metrics = run_once(w, seed, trace, limit, out_dir)
            merged.update(metrics)
            if trace == 0:
                merged["failed_op_ratio"] = (failed / attempted, "ratio")
        suite[w] = merged
        for name, (value, unit) in merged.items():
            print(f"{w:15s} {name:34s} {value:<22.10g} {unit}")
        sys.stdout.flush()
    return suite


def is_host_clock(name, unit):
    """Wall-clock metrics differ from run to run; everything else must not."""
    return name == "setup_s" or name.startswith("host_") or unit.startswith("host_")


def check_repeat(first, second, contract):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    problems = []
    print("\nworkload        metric                             spread     verdict")
    for w in first:
        for name, (a, unit) in first[w].items():
            b = second[w][name][0]
            spread = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            if not is_host_clock(name, unit):
                ok, verdict = a == b, "identical" if a == b else "differs, must repeat exactly"
            elif name in bounds:
                ok = spread <= bounds[name]
                verdict = f"{'within' if ok else 'beyond'} bound {bounds[name]:.3f}"
            else:
                ok, verdict = True, "no bound"
            if not ok:
                problems.append(f"{w} {name}: {a} vs {b} ({verdict})")
            print(f"{w:15s} {name:34s} {spread:<10.5f} {verdict}")
    if problems:
        sys.exit("check-repeat failed:\n  " + "\n  ".join(problems))
    print("check-repeat passed")


def main():
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--check-repeat", action="store_true")
    args = ap.parse_args()

    workloads = [args.workload] if args.workload else names
    out_dir = os.path.join(HERE, "target", "out")
    if args.check_repeat:
        limit = ["--rounds", str(REPEAT_ROUNDS)]
        first = run_suite(workloads, args.seed, limit, out_dir)
        second = run_suite(workloads, args.seed, limit, out_dir)
        check_repeat(first, second, contract)
    else:
        seconds = args.seconds / 20 if args.quick else args.seconds
        run_suite(workloads, args.seed, ["--seconds", str(seconds)], out_dir)


if __name__ == "__main__":
    main()
