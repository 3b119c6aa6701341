"""Compare the bottleneck solver of two checkouts over a fixed scan of tables.

Usage:

    python3 tools/ib_scan.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  PARENT's package builds
148 tables once: ``random_joint(nx, ny, alpha, seed)`` for nx, ny in
{2, 3, 4, 6}, alpha in {0.5, 1, 2} and seeds 0-2, and ``dsbs(flip)`` at
four flips.  Each checkout then runs ``ib_curve(j, BETAS, restarts=r,
seed=0)`` on every table at restarts 0 and 2, with the seven multipliers
``BETAS``: 2,072 solutions, in one fresh process per side.

It prints, per side, the time spent in the curves, the number of
solutions with ``converged`` and the number whose Lagrangian history never
rises by more than 1e-9 bits from one iteration to the next; then, per
restarts and in total, how many Lagrangians fall and how many rise by more
than 1e-9 bits from PARENT to CHANGE, with the largest of each; then the
five largest rises.  Exits 1 when a side's run fails, 0 otherwise: a rise
is reported, not judged.  The runs write no bytecode into either checkout.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from wyner_scan import moves, scan_both  # noqa: E402

#: writes the tables, run with the parent's package
TABLES_SCRIPT = """
import json, sys
from infosep.harness import dsbs, random_joint

def rows(j):
    return [[float(v) for v in row] for row in j.p]

tables = {}
for nx in (2, 3, 4, 6):
    for ny in (2, 3, 4, 6):
        for alpha in (0.5, 1.0, 2.0):
            for seed in range(3):
                tables[f"random_joint({nx}, {ny}, {alpha:g}, {seed})"] = rows(
                    random_joint(nx, ny, alpha=alpha, seed=seed))
for flip in (0.05, 0.1, 0.2, 0.3):
    tables[f"dsbs({flip:g})"] = rows(dsbs(flip))
with open(sys.argv[1], "w") as fh:
    json.dump(tables, fh)
"""

#: a Lagrangian or a step of its history moves when it changes by more
#: than this many bits
MOVE = 1e-9

#: solves every table, run with each side's package
SCAN_SCRIPT = f"""
import json, sys, time
from infosep.dist import validate_and_trim
from infosep.ib import ib_curve

with open(sys.argv[1]) as fh:
    tables = json.load(fh)
rows, seconds = [], 0.0
for name, p in tables.items():
    j = validate_and_trim(p)
    for restarts in (0, 2):
        start = time.perf_counter()
        curve = ib_curve(j, (1.2, 1.5, 1.6, 2.0, 3.0, 5.0, 20.0),
                         restarts=restarts, seed=0)
        seconds += time.perf_counter() - start
        for sol in curve.solutions:
            h = list(sol.history)
            rows.append([name, restarts, sol.beta, float(sol.lagrangian.value),
                         bool(sol.converged),
                         all(b <= a + {MOVE!r} for a, b in zip(h, h[1:]))])
print(json.dumps({{"seconds": seconds, "rows": rows}}))
"""


def main(argv=None) -> int:
    got = scan_both(argv, "tools/ib_scan.py", __doc__, TABLES_SCRIPT,
                    SCAN_SCRIPT)
    if got is None:
        return 1
    for side, result in got.items():
        converged = sum(row[4] for row in result["rows"])
        monotone = sum(row[5] for row in result["rows"])
        print(f"{side}: {len(result['rows'])} solutions in "
              f"{result['seconds']:.1f} s, {converged} converged, "
              f"{monotone} nonincreasing histories")
    pairs = [(old, new[3] - old[3])
             for old, new in zip(got["parent"]["rows"], got["change"]["rows"])]
    for restarts in (0, 2):
        diffs = [d for row, d in pairs if row[1] == restarts]
        print(f"{f'restarts {restarts}':20s} {moves(diffs, MOVE)}")
    print(f"{f'all {len(pairs)} solutions':20s} "
          f"{moves([d for _, d in pairs], MOVE)}")
    rises = sorted((p for p in pairs if p[1] > MOVE), key=lambda p: -p[1])
    print("largest rises:" if rises else "no rises")
    for (name, restarts, beta, value, *_), d in rises[:5]:
        print(f"  {name}, restarts {restarts}, beta {beta:g}: "
              f"{value:.10f} -> {value + d:.10f} (+{d:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
