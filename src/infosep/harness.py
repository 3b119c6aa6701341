"""Test-bed generators and the separability verification harness.

Refinement is the controlled way to build joints whose dependence lives on
a smaller alphabet: every base symbol is split into weighted copies,

    P(x, y) = P_ST(s(x), t(y)) * w_x * w_y,

so the block maps (s, t) are sufficient by construction and every
dependence measure must survive the reduction back to the base.
`random_refinement` draws such a table together with its maps.
`verify_separability` runs a battery of such comparisons, or a chosen
subset of it, on any table and maps, and reports per-measure gaps;
`simulate_and_estimate` does the same on sampled data, where reduction
happens by aggregating counts.

Sampling uses the counter-based Philox generator, so identical seeds give
identical draws across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common_info import gacs_korner, wyner_solve
from .dist import (
    DeterministicMap,
    InfoValue,
    JointDistribution,
    mutual_information,
    validate_and_trim,
)
from .errors import DimensionError, InsufficientStatistic, InvalidDistribution
from .finfo import f_information, get_generator
from .ib import ib_curve, theta_of_R
from .modal import check_sufficiency


def dsbs(flip: float) -> JointDistribution:
    """Doubly symmetric binary pair: uniform X, Y = X flipped with this rate."""
    if not 0.0 <= flip <= 1.0:
        raise InvalidDistribution("flip probability must lie in [0, 1]")
    same = (1.0 - flip) / 2.0
    diff = flip / 2.0
    return validate_and_trim([[same, diff], [diff, same]])


def random_joint(nx: int, ny: int, alpha: float = 1.0,
                 seed: int = 0) -> JointDistribution:
    """Joint pmf drawn from a flat Dirichlet over the nx*ny cells."""
    if nx < 1 or ny < 1:
        raise DimensionError("alphabet sizes must be positive")
    if alpha <= 0.0:
        raise ValueError("Dirichlet concentration must be positive")
    rng = np.random.default_rng(seed)
    cells = rng.dirichlet(np.full(nx * ny, alpha)).reshape(nx, ny)
    return validate_and_trim(cells)


def random_refinement(base: JointDistribution, nx: int, ny: int,
                      seed: int = 0) -> tuple[JointDistribution,
                                              DeterministicMap,
                                              DeterministicMap]:
    """Draw a random refinement of ``base`` to alphabet sizes (nx, ny).

    Each base symbol gets at least one copy, the extra copies go to
    uniformly drawn symbols, and each block's weights are Dirichlet(1).
    Returns ``(joint, s, t)``: the refined table, unlabelled, and its block
    maps, which are sufficient by construction.
    """
    if nx < base.nx or ny < base.ny:
        raise DimensionError(
            "refined alphabets cannot be smaller than the base alphabets")
    rng = np.random.default_rng(seed)

    def split(n_base, n_total):
        sizes = np.ones(n_base, dtype=np.int64)
        for _ in range(n_total - n_base):
            sizes[rng.integers(n_base)] += 1
        weights = np.concatenate([rng.dirichlet(np.ones(sz)) for sz in sizes])
        return np.repeat(np.arange(n_base), sizes), weights

    sx, wx = split(base.nx, nx)
    ty, wy = split(base.ny, ny)
    j = JointDistribution(base.p[np.ix_(sx, ty)] * np.outer(wx, wy))
    return j, DeterministicMap(sx, base.nx), DeterministicMap(ty, base.ny)


#: gap allowed between raw and reduced values of an exact measure
EXACT_TOL = 1e-9
#: gap allowed between raw and reduced values of a solver-based measure
SOLVER_TOL = 5e-3
#: bottleneck multipliers of the "ib" and "theta" rows
IB_BETAS = (1.5, 2.0, 5.0)
#: rates, evenly spaced from 0 to the saturation rate, of the "theta" rows
THETA_POINTS = 11


#: measure battery run when none is requested explicitly
DEFAULT_MEASURES = ("mi", "f:kl", "f:reverse-kl", "f:chi2", "f:tv",
                    "f:hellinger2", "gk", "wyner", "ib", "theta")


@dataclass(frozen=True)
class MeasureRow:
    measure: str
    value_raw: float
    value_reduced: float
    gap: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class SeparabilityReport:
    """Per-measure agreement between a joint and its reduction."""

    rows: tuple
    s: DeterministicMap
    t: DeterministicMap
    sufficient: bool
    sufficiency_gap: float
    overall: bool
    unit: str

    def to_dict(self) -> dict:
        return {
            "sufficient": self.sufficient,
            "sufficiency_gap": self.sufficiency_gap,
            "overall": self.overall,
            "unit": self.unit,
            "s": [int(v) for v in self.s.assignment],
            "t": [int(v) for v in self.t.assignment],
            "rows": [
                {
                    "measure": r.measure,
                    "value_raw": r.value_raw,
                    "value_reduced": r.value_reduced,
                    "gap": r.gap,
                    "tol": r.tol,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }


def _gap(a: float, b: float) -> float:
    if a == b:
        return 0.0  # covers matching infinities
    return abs(a - b)


def verify_separability(j: JointDistribution, s: DeterministicMap,
                        t: DeterministicMap, measures=None,
                        strict: bool = False, *, seed: int = 0,
                        restarts: int = 10, unit: str = "bits",
                        wyner_card: int | None = None) -> SeparabilityReport:
    """Compare dependence measures of ``j`` and its reduction through (s, t).

    With ``strict`` the maps must pass the sufficiency test; otherwise the
    report records the verdict and its gap and proceeds.  The measure rows
    need not expose insufficient maps (merging two symbols whose ratios
    differ slightly moves the measures only at second order), so
    ``overall`` requires the verdict as well as every row.  A row passes
    when its gap is at most ``EXACT_TOL`` for an exact measure (``mi``,
    ``f:*``, ``gk``) or ``SOLVER_TOL`` for a solver-based one (``wyner``,
    ``ib``, ``theta``).  Each side is solved separately: ``seed`` and
    ``restarts`` go to `wyner_solve` and `ib_curve`, ``wyner_card`` to
    `wyner_solve` as ``card_w``, and every value is in ``unit``.
    """
    measures = tuple(measures) if measures is not None else DEFAULT_MEASURES
    verdict = check_sufficiency(j, s, t)
    if strict and not verdict.sufficient:
        raise InsufficientStatistic(
            f"maps are not sufficient: ratio gap {verdict.max_ratio_gap:.3e}")
    red = verdict.reduced

    rows = []

    def add(measure, raw, reduced, tol):
        gap = _gap(raw, reduced)
        rows.append(MeasureRow(measure=measure, value_raw=raw,
                               value_reduced=reduced, gap=gap, tol=tol,
                               passed=bool(gap <= tol)))

    need_curves = any(m in ("ib", "theta") for m in measures)
    curves = None
    if need_curves:
        curves = tuple(
            ib_curve(side, IB_BETAS, restarts=restarts, seed=seed, unit=unit)
            for side in (j, red))

    for m in measures:
        if m == "mi":
            add("mi", mutual_information(j, unit).value,
                mutual_information(red, unit).value, EXACT_TOL)
        elif m.startswith("f:"):
            gen = get_generator(m[2:])
            add(m, f_information(j, gen, unit).value,
                f_information(red, gen, unit).value, EXACT_TOL)
        elif m == "gk":
            add("gk", gacs_korner(j, unit=unit).value.value,
                gacs_korner(red, unit=unit).value.value, EXACT_TOL)
        elif m == "wyner":
            raw, reduced = (
                wyner_solve(side, card_w=wyner_card, restarts=restarts,
                            seed=seed, unit=unit).value.value
                for side in (j, red))
            add("wyner", raw, reduced, SOLVER_TOL)
        elif m == "ib":
            for b, sol_raw, sol_red in zip(IB_BETAS, curves[0].solutions,
                                           curves[1].solutions):
                add(f"ib[beta={b:g}]", sol_raw.lagrangian.value,
                    sol_red.lagrangian.value, SOLVER_TOL)
        elif m == "theta":
            r_max = curves[0].saturation_rate
            for r in np.linspace(0.0, r_max, THETA_POINTS):
                add(f"theta[R={r:.6g}]", theta_of_R(curves[0], r).value,
                    theta_of_R(curves[1], r).value, SOLVER_TOL)
        else:
            raise ValueError(f"unknown measure {m!r}")

    return SeparabilityReport(
        rows=tuple(rows), s=s, t=t,
        sufficient=verdict.sufficient,
        sufficiency_gap=verdict.max_ratio_gap,
        overall=verdict.sufficient and all(r.passed for r in rows),
        unit=unit,
    )


@dataclass(frozen=True)
class SimulationResult:
    """Plug-in estimates from sampled data, raw and reduced.

    ``mi_plugin_raw`` and ``mi_plugin_reduced`` are plug-in estimates: the
    mutual information of the empirical table.  A plug-in estimate is
    biased upward, to first order by ``(nx - 1)(ny - 1) / (2n)`` nats for
    ``n`` samples on an ``nx`` by ``ny`` alphabet (Miller 1955).  Both
    estimate ``mi_true``, since the maps are sufficient, but the reduced
    table has fewer symbols and so the smaller bias: that is what
    separability buys an estimator.  The reduced estimate is never above
    the raw one, as merging symbols of the empirical table cannot raise its
    mutual information.
    """

    mi_true: InfoValue
    mi_plugin_raw: InfoValue
    mi_plugin_reduced: InfoValue
    counts_raw: np.ndarray
    counts_reduced: np.ndarray


def simulate_and_estimate(j: JointDistribution, s: DeterministicMap,
                          t: DeterministicMap, n: int, seed: int = 0,
                          unit: str = "bits") -> SimulationResult:
    """Draw n iid pairs, estimate mutual information raw and reduced.

    The reduced estimate aggregates the raw count table through (s, t)
    before the plug-in, so the two estimates use exactly the same draws;
    the aggregation identity (reduced counts are the pushforward of the
    raw counts) holds by construction.  Both estimates are biased upward,
    the reduced one less (see `SimulationResult`).
    """
    if s.domain_size != j.nx or t.domain_size != j.ny:
        raise DimensionError("maps do not match the joint alphabets")
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    cdf = np.cumsum(j.p.ravel())
    cdf[-1] = 1.0
    draws = rng.random(int(n))
    idx = np.searchsorted(cdf, draws, side="right")
    counts = np.bincount(idx, minlength=j.nx * j.ny).reshape(j.nx, j.ny)
    reduced = np.zeros((s.image_size, t.image_size), dtype=np.int64)
    np.add.at(reduced, (s.assignment[:, None], t.assignment[None, :]), counts)
    return SimulationResult(
        mi_true=mutual_information(j, unit),
        mi_plugin_raw=mutual_information(validate_and_trim(counts), unit),
        mi_plugin_reduced=mutual_information(validate_and_trim(reduced), unit),
        counts_raw=counts,
        counts_reduced=reduced,
    )
