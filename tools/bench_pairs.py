"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload measures-redundant \\
        --pairs 10 --seed 1

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``perfbench/run.py --trace 0`` once in each checkout, one run at a time,
each as long as the benchmark's ``run_seconds``;
even pairs start with PARENT and odd pairs with CHANGE, so that both sides
see the same mix of fast and slow periods of a shared machine.  For every
end-to-end metric of the parent's ``BENCHMARK.json`` it prints the median
and the quartiles (``statistics.quantiles(n=4)``) of each side, the ratio
of the medians and the number of pairs the change wins.  The runs write no
bytecode, so nothing is written under ``perfbench/``.  Exits 1 when any run
fails or reports an incorrect result, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, args) -> dict | None:
    """One benchmark run in the checkout ``root``; its last JSON line, or
    None when the run failed."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def summary(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    results = {"parent": [], "change": []}
    bad = {"parent": 0, "change": 0}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args)
            if result is None or not result.get("correct", False):
                bad[side] += 1
            if result is not None:
                failed[side] += result.get("failed", 0)
                results[side].append(result["metrics"])
            else:
                results[side].append(None)
        row = "  ".join(
            f"{side} {results[side][-1]['pass_s']['value']:.4f}"
            if results[side][-1] else f"{side} failed" for side in order)
        print(f"pair {i + 1}/{args.pairs}: pass_s {row}", flush=True)

    pairs = [(p, c) for p, c in zip(results["parent"], results["change"])
             if p is not None and c is not None]
    print(f"\nworkload {args.workload}  seed {args.seed}  "
          f"{len(pairs)} complete pairs")
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        if len(pairs) < 2 or any(name not in side for pair in pairs
                                 for side in pair):
            print(f"{name:12s} not measured")
            continue
        par = [p[name]["value"] for p, _ in pairs]
        chg = [c[name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ratio = statistics.median(chg) / statistics.median(par)
        print(f"{name:12s} parent {summary(par)}  change {summary(chg)}  "
              f"x{ratio:.3f}  change wins {wins}/{len(pairs)}  "
              f"({spec['unit']}, {spec['better']} is better)")
    print(f"failed calls: parent {failed['parent']}, change {failed['change']}; "
          f"incorrect runs: parent {bad['parent']}, change {bad['change']}")
    return 1 if bad["parent"] or bad["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
