"""Compare what two checkouts' command lines write, over a fixed matrix.

Usage:

    python3 tools/same_outputs.py PARENT CHANGE [--allow FIELD ...]

PARENT and CHANGE are the roots of two checkouts.  PARENT's package writes
four tables once, as JSON files that both sides then read: ``dsbs(0.1)``,
``random_joint(3, 3, seed=0)``, ``random_refinement(dsbs(0.1), 8, 8,
seed=3)`` and a 400x400 ``random_refinement`` (seed 0) of
``random_joint(4, 4, seed=1)``.  On each table each checkout runs, as
``python -m infosep.cli`` in a fresh directory of its own:

* ``measures --seed 5 --restarts 2``;
* ``reduce --strict --out reduced.json --maps-out maps.json``;
* ``verify --auto-refine 9 9 --seed 5 --restarts 2``;
* ``ib-sweep --seed 5 --restarts 2``.

It compares the exit codes, stderr, stdout and every file a run writes.
JSON reports are compared without their ``timestamp`` and ``input.path``
fields, and CSV lines by column.  A field is named ``COMMAND:PATH``: the
dotted key path in a JSON report (``measures:measures.wyner.value``), a CSV
column or ``#`` row name (``ib-sweep:i_ux``, ``ib-sweep:envelope``), a
written file's name and key path (``reduce:maps.json:s``), or one of
``COMMAND:exit``, ``COMMAND:stderr`` and ``COMMAND:files``; list indices
are dropped.  It prints, per field that differs anywhere, the number of
differing values and the largest numeric change.  ``--allow`` takes a
field name or an ``fnmatch`` pattern and may be repeated.  Exits 1 when a
difference is in no allowed field, 0 otherwise.  The runs write no
bytecode into either checkout.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys
import tempfile

#: writes the tables, run with the parent's package
TABLES_SCRIPT = """
import json, os, sys
from infosep.harness import dsbs, random_joint, random_refinement
tables = {
    "dsbs": dsbs(0.1),
    "rj33": random_joint(3, 3, seed=0),
    "ref8": random_refinement(dsbs(0.1), 8, 8, seed=3)[0],
    "ref400": random_refinement(random_joint(4, 4, seed=1), 400, 400,
                                seed=0)[0],
}
for name, j in tables.items():
    with open(os.path.join(sys.argv[1], name + ".json"), "w") as fh:
        json.dump({"p": [[float(v) for v in row] for row in j.p]}, fh)
"""

TABLES = ("dsbs", "rj33", "ref8", "ref400")
COMMANDS = {
    "measures": ["--seed", "5", "--restarts", "2"],
    "reduce": ["--strict", "--out", "reduced.json", "--maps-out", "maps.json"],
    "verify": ["--auto-refine", "9", "9", "--seed", "5", "--restarts", "2"],
    "ib-sweep": ["--seed", "5", "--restarts", "2"],
}


def _env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                PYTHONDONTWRITEBYTECODE="1")


def run(root: str, command: str, table: str, workdir: str) -> dict:
    """One command on one table in ``workdir``; what it returned and wrote."""
    os.makedirs(workdir)
    proc = subprocess.run(
        [sys.executable, "-m", "infosep.cli", command, table,
         *COMMANDS[command]],
        cwd=workdir, env=_env(root), capture_output=True, text=True)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return {"exit": proc.returncode, "stderr": proc.stderr,
            "stdout": proc.stdout, "files": files}


def _leaves(obj, path, out):
    """Append ``(path, leaf)`` of every leaf of a JSON value, in order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _leaves(obj[key], f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _leaves(value, path, out)
    else:
        out.append((path, obj))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def fields(command: str, result: dict) -> dict:
    """Every compared value of one run, grouped by field name."""
    pairs = [("exit", result["exit"]), ("stderr", result["stderr"]),
             ("files", " ".join(result["files"]))]

    def parse(prefix, text):
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            doc.pop("timestamp", None)
            if isinstance(doc.get("input"), dict):
                doc["input"].pop("path", None)
            leaves = []
            _leaves(doc, "", leaves)
            pairs.extend((prefix + path, value) for path, value in leaves)
            return
        lines = text.splitlines()
        if not lines or "," not in lines[0]:
            pairs.append((prefix + "text", text))
            return
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            if line.startswith("#"):
                name = cells[0].lstrip("# ")
                pairs.extend((prefix + name, _number(c)) for c in cells[1:])
            else:
                pairs.extend((prefix + h, _number(c))
                             for h, c in zip(header, cells))

    if result["stdout"]:
        parse("", result["stdout"])
    for name, text in result["files"].items():
        parse(f"{name}:", text)
    grouped = {}
    for path, value in pairs:
        grouped.setdefault(f"{command}:{path}", []).append(value)
    return grouped


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old: list, new: list):
    """(values that differ, largest numeric change or None) of one field."""
    if len(old) != len(new):
        return max(len(old), len(new)), None
    differ, largest = 0, 0.0
    for a, b in zip(old, new):
        if a == b or (_is_number(a) and _is_number(b)
                      and math.isnan(a) and math.isnan(b)):
            continue
        differ += 1
        if _is_number(a) and _is_number(b) and largest is not None:
            largest = max(largest, abs(a - b))
        else:
            largest = None
    return differ, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/same_outputs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="FIELD")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        subprocess.run([sys.executable, "-c", TABLES_SCRIPT, inputs],
                       env=_env(roots["parent"]), check=True)
        for table in TABLES:
            path = os.path.join(inputs, table + ".json")
            for command in COMMANDS:
                got = {side: fields(command, run(
                    root, command, path,
                    os.path.join(tmp, side, table, command)))
                    for side, root in roots.items()}
                codes = " ".join(f"{side} {got[side][command + ':exit'][0]}"
                                 for side in roots)
                print(f"{table:7s} {command:9s} exit {codes}", flush=True)
                for name in sorted(set(got["parent"]) | set(got["change"])):
                    differ, largest = compare(got["parent"].get(name, []),
                                              got["change"].get(name, []))
                    if differ:
                        count, big = found.get(name, (0, 0.0))
                        found[name] = (count + differ, None if (
                            big is None or largest is None)
                            else max(big, largest))

    blocked = 0
    print(f"\n{len(found)} fields differ")
    for name, (count, largest) in sorted(found.items()):
        allowed = any(fnmatch.fnmatchcase(name, pattern)
                      for pattern in args.allow)
        blocked += not allowed
        change = "not numeric" if largest is None else f"{largest:.3g}"
        print(f"{name}: {count} values differ, largest change {change}"
              f"{' (allowed)' if allowed else ''}")
    return 1 if blocked else 0


if __name__ == "__main__":
    sys.exit(main())
