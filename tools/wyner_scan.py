"""Compare the Wyner solver of two checkouts over a fixed scan of tables.

Usage:

    python3 tools/wyner_scan.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  PARENT's package builds
168 tables once: ``random_joint(nx, ny, alpha, seed)`` for nx, ny in
{2, 3, 4}, alpha in {0.5, 1, 2} and seeds 0-3; ``random_joint(3, 3,
seed=s)`` for seeds 0-5 with one cell set to zero, each of its nine cells in
turn; and ``dsbs(flip)`` at six flips from 0 to 0.5.  Each checkout then
runs ``wyner_solve(j, card_w, restarts, seed=0)`` on every table at
restarts 0 and 2, with the default ``card_w`` and with ``max(nx, ny)``: 672
solves, in one fresh process per side.

It prints, per side, the time spent in the solves and the number of
results with ``converged``; then, per setting and in total, how many values
fall and how many rise by more than 1e-6 bits from PARENT to CHANGE, with
the largest of each; then the five largest rises.  Exits 1 when a side's
run fails, 0 otherwise: a rise is reported, not judged.  The runs write no
bytecode into either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

#: writes the tables, run with the parent's package
TABLES_SCRIPT = """
import json, sys
from infosep.harness import dsbs, random_joint

def rows(j):
    return [[float(v) for v in row] for row in j.p]

tables = {}
for nx in (2, 3, 4):
    for ny in (2, 3, 4):
        for alpha in (0.5, 1.0, 2.0):
            for seed in range(4):
                tables[f"random_joint({nx}, {ny}, {alpha:g}, {seed})"] = rows(
                    random_joint(nx, ny, alpha=alpha, seed=seed))
for seed in range(6):
    for cell in range(9):
        p = rows(random_joint(3, 3, seed=seed))
        p[cell // 3][cell % 3] = 0.0
        tables[f"random_joint(3, 3, {seed}), cell {cell}"] = p
for flip in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5):
    tables[f"dsbs({flip:g})"] = rows(dsbs(flip))
with open(sys.argv[1], "w") as fh:
    json.dump(tables, fh)
"""

#: solves every table, run with each side's package
SCAN_SCRIPT = """
import json, sys, time
from infosep.common_info import wyner_solve
from infosep.dist import validate_and_trim

with open(sys.argv[1]) as fh:
    tables = json.load(fh)
rows, seconds = [], 0.0
for name, p in tables.items():
    j = validate_and_trim(p)
    for restarts in (0, 2):
        for card in ("default", "max"):
            start = time.perf_counter()
            r = wyner_solve(j, None if card == "default" else max(j.nx, j.ny),
                            restarts=restarts, seed=0)
            seconds += time.perf_counter() - start
            rows.append([name, restarts, card, float(r.value),
                         bool(r.converged)])
print(json.dumps({"seconds": seconds, "rows": rows}))
"""

#: a value moves when it changes by more than this many bits
MOVE = 1e-6


def _env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                PYTHONDONTWRITEBYTECODE="1")


def scan(root: str, tables: str) -> dict | None:
    """The scan in the checkout ``root``; None when the run failed."""
    proc = subprocess.run([sys.executable, "-c", SCAN_SCRIPT, tables],
                          env=_env(root), capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def _moves(diffs) -> str:
    falls = [-d for d in diffs if d < -MOVE]
    rises = [d for d in diffs if d > MOVE]
    return (f"falls {len(falls):4d} (largest {max(falls, default=0.0):.3g})"
            f"  rises {len(rises):4d} (largest {max(rises, default=0.0):.3g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/wyner_scan.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    with tempfile.TemporaryDirectory() as tmp:
        tables = os.path.join(tmp, "tables.json")
        subprocess.run([sys.executable, "-c", TABLES_SCRIPT, tables],
                       env=_env(roots["parent"]), check=True)
        got = {side: scan(root, tables) for side, root in roots.items()}
    failed = [side for side, result in got.items() if result is None]
    if failed:
        print(f"run failed: {', '.join(failed)}")
        return 1

    for side, result in got.items():
        converged = sum(row[4] for row in result["rows"])
        print(f"{side}: {len(result['rows'])} solves in "
              f"{result['seconds']:.1f} s, {converged} converged")
    pairs = [(old, new[3] - old[3])
             for old, new in zip(got["parent"]["rows"], got["change"]["rows"])]
    for restarts in (0, 2):
        for card in ("default", "max"):
            diffs = [d for row, d in pairs if row[1:3] == [restarts, card]]
            print(f"{f'restarts {restarts}, card_w {card}':27s} "
                  f"{_moves(diffs)}")
    print(f"{f'all {len(pairs)} solves':27s} {_moves([d for _, d in pairs])}")
    rises = sorted((p for p in pairs if p[1] > MOVE), key=lambda p: -p[1])
    print("largest rises:" if rises else "no rises")
    for (name, restarts, card, value, _), d in rises[:5]:
        print(f"  {name}, restarts {restarts}, card_w {card}: "
              f"{value:.7f} -> {value + d:.7f} (+{d:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
