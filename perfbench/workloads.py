"""Workloads: inputs generated from the seed, the calls a pass makes, and
the checks each call's output must pass.

A workload is prepared once per set-up: it generates its tables from the
seed, writes them as input files, computes reference values and returns
the list of :class:`Call` objects one pass makes.  A call runs the program
the way a user does (``infosep.cli.main`` in-process, or the public API)
and its check runs after the pass, outside the timed region.

Function attributes are looked up on their modules at call time, so the
timing wrappers of :mod:`perfbench.tracing` see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import infosep.cli
import infosep.common_info
import infosep.dist
import infosep.harness
import infosep.ib

from . import reference

#: tolerances the repository's tests pin: exact measures and solver values
EXACT_TOL = 1e-9
SOLVER_TOL = 5e-3
#: solver restarts given to ``infosep measures``; the CLI default (10)
#: makes one pass longer than a whole run may take on a 2-core machine
RESTARTS = 0
#: bottleneck multipliers ``infosep measures`` uses when none are given
IB_BETAS = (1.5, 2.0, 5.0)
#: measures battery for ``verify_separability`` on large inputs (no solvers)
EXACT_BATTERY = ("mi", "f:kl", "f:reverse-kl", "f:chi2", "f:tv",
                 "f:hellinger2", "gk")


@dataclass
class Call:
    """One timed request: ``run`` makes it, ``check`` judges the outcome.

    ``check(outcome, notes)`` returns a list of problems (empty when the
    output is right) and may record quality figures in ``notes``.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


@dataclass
class Prepared:
    calls: list
    warmup: Call


# --- input generation -------------------------------------------------------

def dsbs_table(flip: float) -> np.ndarray:
    same, diff = (1.0 - flip) / 2.0, flip / 2.0
    return np.array([[same, diff], [diff, same]])


def dirichlet_table(rng, nx: int, ny: int) -> np.ndarray:
    return rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)


def block_table(rng) -> np.ndarray:
    """4x4 table with two 2x2 diagonal blocks: a 1-bit-ish common part."""
    masses = rng.dirichlet([4.0, 4.0])
    p = np.zeros((4, 4))
    for b, mass in enumerate(masses):
        p[2 * b:2 * b + 2, 2 * b:2 * b + 2] = mass * dirichlet_table(rng, 2, 2)
    return p


def refine(rng, base: np.ndarray, nx: int, ny: int):
    """Split each base symbol into weighted copies; returns (table, sx, ty).

    ``sx[x]`` and ``ty[y]`` give the base symbol of each refined symbol, so
    (sx, ty) are sufficient maps by construction.
    """
    def split(n_base, n):
        sizes = 1 + rng.multinomial(n - n_base, np.full(n_base, 1.0 / n_base))
        labels = np.repeat(np.arange(n_base), sizes)
        weights = np.concatenate([rng.dirichlet(np.ones(k)) for k in sizes])
        return labels, weights

    sx, wx = split(base.shape[0], nx)
    ty, wy = split(base.shape[1], ny)
    return base[np.ix_(sx, ty)] * np.outer(wx, wy), sx, ty


def write_table(path: str, table: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": table.tolist()}, fh)


# --- running the CLI --------------------------------------------------------

@dataclass
class CliOutcome:
    code: int
    stderr: str


def cli_call(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = infosep.cli.main(argv)
        return CliOutcome(code, err.getvalue())
    return run


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol


# --- measures workloads -----------------------------------------------------

@dataclass
class MeasuresRef:
    """What one ``infosep measures`` report on a base table, or on a
    refinement of one, must show.

    ``exact`` comes from :func:`reference.exact_measures` on the base table
    (entropies from the input itself, since refinement changes them), and
    ``ib`` maps each multiplier to the Lagrangian of a run on the base table.
    With ``flip`` set the base is DSBS(flip): the Wyner value must be
    converged and near the closed form.  Otherwise ``wyner()`` gives the
    value of a run on the base table; the report's distance to it is
    recorded as a quality figure, not checked (see :func:`_wyner_problems`).
    """

    exact: dict
    ib: dict
    flip: float | None = None
    wyner: Callable[[], float] | None = None


def _wyner_problems(w: dict, ref: MeasuresRef, notes: dict) -> list:
    if ref.flip is not None:
        closed = reference.dsbs_wyner_bits(ref.flip)
        gap = abs(w["value"] - closed)
        key = "common_info.wyner_dsbs_gap_bits"
        notes[key] = max(notes.get(key, 0.0), gap)
        if not w["converged"] or gap > SOLVER_TOL:
            return [f"wyner {w!r} vs closed form {closed!r}"]
        return []
    # On a refined input the solver's restarts may stop short of the value
    # it finds on the base table, or end unconverged.  Both are solver
    # accuracy, reported as figures.  What is checked is that the reported
    # pair is consistent: any kernel has I(XY;W) >= I(X;Y) - I(X;Y|W).
    key = "common_info.wyner_base_gap_bits"
    notes[key] = max(notes.get(key, 0.0), abs(w["value"] - ref.wyner()))
    key = "common_info.wyner_unconverged_calls"
    notes[key] = notes.get(key, 0) + (not w["converged"])
    if w["value"] + w["residual"] < ref.exact["mi"] - EXACT_TOL:
        return [f"wyner {w!r} below I(X;Y) {ref.exact['mi']!r}"]
    return []


def _measures_problems(doc: dict, ref: MeasuresRef, betas, notes: dict) -> list:
    m = doc["measures"]
    ex = ref.exact
    bad = []
    for key in ("h_x", "h_y", "mi"):
        if not _close(m[key], ex[key], EXACT_TOL):
            bad.append(f"{key} {m[key]!r} != {ex[key]!r}")
    for name, value in ex["f_info"].items():
        if not _close(m["f_info"][name], value, EXACT_TOL):
            bad.append(f"f_info[{name}] {m['f_info'][name]!r} != {value!r}")
    if len(m["sigmas"]) != len(ex["sigmas"]) or not all(
            _close(a, b, EXACT_TOL) for a, b in zip(m["sigmas"], ex["sigmas"])):
        bad.append(f"sigmas {m['sigmas']!r} != {ex['sigmas']!r}")
    if not _close(m["gk"]["value"], ex["gk"], EXACT_TOL) \
            or m["gk"]["component_count"] != ex["gk_components"]:
        bad.append(f"gk {m['gk']!r} != {ex['gk']!r}")
    bad += _wyner_problems(m["wyner"], ref, notes)
    if sorted(m["ib"]) != sorted(f"{beta:g}" for beta in betas):
        bad.append(f"ib multipliers {sorted(m['ib'])!r}")
        return bad
    for beta in betas:
        lag = m["ib"][f"{beta:g}"]["lagrangian"]
        if abs(lag - ref.ib[beta]) > SOLVER_TOL:
            bad.append(f"ib[{beta:g}] {lag!r} vs reference {ref.ib[beta]!r}")
    return bad


def measures_call(label: str, workdir: str, name: str, table: np.ndarray,
                  ref: MeasuresRef, options=()) -> Call:
    """``infosep measures`` on ``table``; ``options`` are extra CLI flags.

    With ``--beta`` options only those multipliers are checked.
    """
    src = os.path.join(workdir, f"{name}.json")
    out = os.path.join(workdir, f"{name}.report.json")
    write_table(src, table)
    argv = ["measures", src, "--restarts", str(RESTARTS), *options,
            "--json-out", out]
    betas = [float(v) for flag, v in zip(options, options[1:]) if flag == "--beta"]

    def check(outcome: CliOutcome, notes: dict) -> list:
        if outcome.code != 0:
            return [f"exit {outcome.code}: {outcome.stderr.strip()}"]
        try:
            doc = _read_json(out)
            return _measures_problems(doc, ref, betas or IB_BETAS, notes)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]

    return Call(label, cli_call(argv), check)


def base_reference(base: np.ndarray, **wyner) -> MeasuresRef:
    """References from the base table; ``wyner`` sets ``flip`` or ``wyner``."""
    joint = infosep.dist.validate_and_trim(base)
    ib = {beta: infosep.ib.ib_fixed_point(joint, beta, restarts=RESTARTS,
                                          seed=0, unit="bits").lagrangian.value
          for beta in IB_BETAS}
    return MeasuresRef(reference.exact_measures(base), ib, **wyner)


def for_refinement(ref: MeasuresRef, table: np.ndarray) -> MeasuresRef:
    """``ref`` with the entropies of ``table``, which refinement changes."""
    p = table / table.sum()
    exact = dict(ref.exact, h_x=reference.entropy_bits(p.sum(axis=1)),
                 h_y=reference.entropy_bits(p.sum(axis=0)))
    return replace(ref, exact=exact)


#: refinements of each base per pass in ``measures-redundant``
REDUNDANT_COPIES = 2
DSBS_FLIP = 0.1


def prepare_measures_redundant(rng, workdir: str) -> Prepared:
    """Refinements of small tables: 8x8 of DSBS(0.1) and 6x6 of a seeded
    3x3 Dirichlet base.

    The Wyner kernel on the raw input has nx*ny auxiliary symbols (64, 36),
    so reduce-first solving would shrink it to 4 or 9.  The references come
    from the base tables.  The warm-up is a small ``measures`` call
    on DSBS(0.1) itself (one multiplier, two auxiliary symbols).
    """
    dsbs = dsbs_table(DSBS_FLIP)
    dsbs_ref = base_reference(dsbs, flip=DSBS_FLIP)
    base = dirichlet_table(rng, 3, 3)
    # The run on the base serves a quality figure only, not a check, so it
    # is made at the first check instead of in set-up.
    wyner = functools.cache(lambda: infosep.common_info.wyner_solve(
        infosep.dist.validate_and_trim(base), restarts=RESTARTS,
        seed=0).value.value)
    bases = ((8, f"dsbs({DSBS_FLIP:g})", dsbs, dsbs_ref),
             (6, "dirichlet3x3", base, base_reference(base, wyner=wyner)))
    calls = []
    for k in range(REDUNDANT_COPIES):
        for n, name, table, ref in bases:
            refined, _, _ = refine(rng, table, n, n)
            calls.append(measures_call(
                f"measures refined{n}x{n}({name})#{k}", workdir, f"ref{n}_{k}",
                refined, for_refinement(ref, refined)))
    warmup = measures_call(f"measures dsbs({DSBS_FLIP:g}) warm-up", workdir,
                           "warmup", dsbs, dsbs_ref,
                           options=("--beta", "2", "--wyner-card", "2"))
    return Prepared(calls=calls, warmup=warmup)


# --- reduce-large -----------------------------------------------------------

def _relabeling(assignment, truth, n: int):
    """Map truth label -> program label if it is a bijection, else None."""
    pairs = set(zip(truth.tolist(), assignment.tolist()))
    if len(pairs) != n or len({a for a, _ in pairs}) != n \
            or len({b for _, b in pairs}) != n:
        return None
    perm = np.empty(n, dtype=np.int64)
    for a, b in pairs:
        perm[a] = b
    return perm


def reduce_call(label, workdir, name, table, base, sx, ty) -> Call:
    src = os.path.join(workdir, f"{name}.json")
    out = os.path.join(workdir, f"{name}.reduced.json")
    maps_out = os.path.join(workdir, f"{name}.maps.json")
    write_table(src, table)
    argv = ["reduce", src, "--strict", "--out", out, "--maps-out", maps_out]
    base = base / base.sum()

    def check(outcome: CliOutcome, notes: dict) -> list:
        if outcome.code != 0:
            return [f"exit {outcome.code}: {outcome.stderr.strip()}"]
        try:
            red = np.asarray(_read_json(out)["p"], dtype=float)
            maps = _read_json(maps_out)
            s, t = np.asarray(maps["s"]), np.asarray(maps["t"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if red.shape != base.shape:
            return [f"reduced shape {red.shape} != base {base.shape}"]
        px = _relabeling(s, sx, base.shape[0])
        py = _relabeling(t, ty, base.shape[1])
        if px is None or py is None:
            return ["maps do not match the refinement blocks"]
        gap = float(np.max(np.abs(red[np.ix_(px, py)] - base)))
        return [] if gap <= EXACT_TOL else [f"reduced table off by {gap:.3e}"]

    return Call(label, cli_call(argv), check)


def verify_call(label, joint, s, t, exact: dict) -> Call:
    def run():
        return infosep.harness.verify_separability(
            joint, s, t, measures=EXACT_BATTERY, strict=True)

    def check(report, notes: dict) -> list:
        bad = [] if report.overall and report.sufficient else ["overall is False"]
        rows = {r.measure: r.value_raw for r in report.rows}
        expect = {"mi": exact["mi"], "gk": exact["gk"]}
        expect.update({f"f:{k}": v for k, v in exact["f_info"].items()})
        for name, value in expect.items():
            if name not in rows or not _close(rows[name], value, EXACT_TOL):
                bad.append(f"{name} {rows.get(name)!r} != {value!r}")
        return bad

    return Call(label, run, check)


def gk_call(label, joint, exact: dict) -> Call:
    def run():
        return infosep.common_info.gk_via_components(joint)

    def check(result, notes: dict) -> list:
        if result.component_count != exact["gk_components"] \
                or not _close(result.value.value, exact["gk"], EXACT_TOL):
            return [f"gk {result.value.value!r}/{result.component_count} != "
                    f"{exact['gk']!r}/{exact['gk_components']}"]
        return []

    return Call(label, run, check)


#: raw alphabet size of the reduce-large inputs
LARGE_N = 400


def prepare_reduce_large(rng, workdir: str) -> Prepared:
    """400x400 refinements of a dense and of a block-diagonal 4x4 base."""
    calls = []
    for name, base in (("dense", dirichlet_table(rng, 4, 4)),
                       ("block", block_table(rng))):
        table, sx, ty = refine(rng, base, LARGE_N, LARGE_N)
        exact = reference.exact_measures(base)
        joint = infosep.dist.validate_and_trim(table)
        s = infosep.dist.DeterministicMap(sx, base.shape[0])
        t = infosep.dist.DeterministicMap(ty, base.shape[1])
        calls.append(reduce_call(f"reduce {name}{LARGE_N}", workdir, name,
                                 table, base, sx, ty))
        calls.append(verify_call(f"verify_separability {name}{LARGE_N}",
                                 joint, s, t, exact))
        calls.append(gk_call(f"gk_via_components {name}{LARGE_N}", joint, exact))
    base = dirichlet_table(rng, 2, 2)
    small, sx, ty = refine(rng, base, 4, 4)
    warmup = reduce_call("reduce warm-up 4x4", workdir, "warmup", small,
                         base, sx, ty)
    return Prepared(calls=calls, warmup=warmup)


WORKLOADS = {
    "measures-redundant": prepare_measures_redundant,
    "reduce-large": prepare_reduce_large,
}
