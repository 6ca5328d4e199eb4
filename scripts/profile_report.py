#!/usr/bin/env python3
"""Prints the profile scripts/profile_shim.c recorded, as three tables over
the samples whose stack holds the anchor frame:

  self %       the function the sample was taken in;
  inclusive %  every function on the sample's stack, once per sample;
  inlined %    the innermost function inlined at the sampled address.

With --tree FRAME it prints instead the callee tree under FRAME, top down:
per line the inclusive and self share of a call path, as % of the anchored
samples, indented by depth; paths below 1 % are left out. A sample counts
under the outermost frame matching FRAME, and a function calling itself
directly is one level.

A sample taken outside the profiled executable (libc's malloc or memcpy, the
vdso) is charged to its first caller inside it: libc is stripped of its
local symbols, so its own addresses would land on an unrelated exported one.

    profile_report.py SAMPLES EXECUTABLE [--anchor FRAME] [--top N] [--tree FRAME]

Needs `nm` and `addr2line` (binutils) on PATH.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

# Rust legacy mangling leaves a `::h<hash>` suffix after demangling.
HASH_SUFFIX = re.compile(r"::h[0-9a-f]{16}$")


def read_samples(path):
    """Each sample: the sampled pc, then the return addresses of its callers."""
    with open(path, "rb") as f:
        data = f.read()
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    samples, i = [], 0
    while i < len(words):
        n = words[i]
        samples.append(words[i + 1 : i + 1 + n])
        i += n + 1
    return samples


def read_maps(path, exe):
    """(start, end, bias) of the executable's code segments."""
    segments = []
    with open(path) as f:
        for line in f:
            bias, start, end, name = line.rstrip("\n").split(" ", 3)
            if name == exe:
                segments.append((int(start, 16), int(end, 16), int(bias, 16)))
    return segments


class Symbols:
    def __init__(self, exe):
        out = subprocess.run(
            ["nm", "-n", "-C", "--defined-only", exe], capture_output=True, text=True, check=True
        ).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(HASH_SUFFIX.sub("", parts[2]))

    def function(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else "?"


def innermost_inlined(exe, vaddrs):
    """{vaddr: "function (file)" of the innermost inlined frame there}, from
    one addr2line call. Line tables name a function without its path, so
    the source file tells apart equal names."""
    query = "\n".join(f"{a:x}" for a in vaddrs)
    out = subprocess.run(
        ["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    found, i = {}, 0
    while i < len(out):
        # "0x<addr>", then a (function, file:line) pair per inlining level.
        addr, func, where = int(out[i], 16), out[i + 1], out[i + 2]
        found[addr] = f"{HASH_SUFFIX.sub('', func)} ({'/'.join(where.split(':')[0].split('/')[-3:])})"
        i += 3
        while i < len(out) and not out[i].startswith("0x"):
            i += 1
    return found


class Node:
    def __init__(self):
        self.total, self.own, self.children = 0, 0, collections.defaultdict(Node)


# --tree leaves out call paths below this share of the anchored samples, in %.
TREE_MIN_PCT = 1.0


def print_tree(kept, frame):
    """The callee tree under `frame` over `kept` (self vaddr, functions
    innermost first), as % of all of `kept`."""
    roots = collections.defaultdict(Node)
    for _, funcs in kept:
        outer = max((i for i, f in enumerate(funcs) if frame in f), default=None)
        if outer is None:
            continue
        path = []  # outermost first, direct self-calls folded
        for f in reversed(funcs[: outer + 1]):
            if not path or path[-1] != f:
                path.append(f)
        node = roots[path[0]]
        node.total += 1
        for f in path[1:]:
            node = node.children[f]
            node.total += 1
        node.own += 1
    if not roots:
        sys.exit(f"no anchored sample has a frame matching {frame!r}")

    def show(name, node, depth):
        print(f"{100 * node.total / len(kept):6.1f} {100 * node.own / len(kept):6.1f}  {'  ' * depth}{name}")
        for child, sub in sorted(node.children.items(), key=lambda kv: -kv[1].total):
            if 100 * sub.total / len(kept) >= TREE_MIN_PCT:
                show(child, sub, depth + 1)

    print(f"callee tree under {frame!r}: inclusive %, self %; paths under {TREE_MIN_PCT:g} % left out")
    for name, node in sorted(roots.items(), key=lambda kv: -kv[1].total):
        show(name, node, 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("samples")
    ap.add_argument("exe")
    ap.add_argument("--anchor", default="", help="count only samples with a frame containing this")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--tree", help="print the callee tree under the outermost frame containing this")
    args = ap.parse_args()

    segments = read_maps(args.samples + ".maps", args.exe)
    if not segments:
        sys.exit(f"{args.exe} is not in {args.samples}.maps")
    symbols = Symbols(args.exe)

    def vaddr(addr):
        for start, end, bias in segments:
            if start <= addr < end:
                return addr - bias
        return None

    total = 0
    kept = []  # (self vaddr, functions on the stack, innermost first)
    for sample in read_samples(args.samples):
        total += 1
        # A return address points after its call: step back into the call.
        stack = [vaddr(a if i == 0 else a - 1) for i, a in enumerate(sample)]
        stack = [v for v in stack if v is not None]  # outside the executable
        if not stack:
            continue
        funcs = [symbols.function(v) for v in stack]
        if any(args.anchor in f for f in funcs):
            kept.append((stack[0], funcs))
    if not kept:
        sys.exit(f"none of {total} samples has a frame matching {args.anchor!r}")

    anchor = f"under {args.anchor!r}" if args.anchor else "in all"
    print(f"{len(kept)} samples {anchor} ({total} taken, one per 100 us of wall time)")
    if args.tree:
        print_tree(kept, args.tree)
        return

    inlined = innermost_inlined(args.exe, sorted({v for v, _ in kept}))
    self_, inclusive, inner = collections.Counter(), collections.Counter(), collections.Counter()
    for v, funcs in kept:
        self_[funcs[0]] += 1
        inclusive.update(set(funcs))
        inner[inlined.get(v, funcs[0])] += 1

    for title, counts in (("self", self_), ("inclusive", inclusive), ("innermost inlined", inner)):
        print(f"\n{title} %")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / len(kept):6.1f}  {name}")


if __name__ == "__main__":
    main()
