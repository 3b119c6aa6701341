"""f-information: convex-generator dependence measures.

An f-information is the f-divergence between a joint pmf and the product of
its marginals,

    I_f(X; Y) = sum_{x,y} P_X(x) P_Y(y) f( P(x,y) / (P_X(x) P_Y(y)) ),

for a convex generator f with f(1) = 0.  Cells where the joint vanishes use
the generator's explicit limit value at 0 (which may be +inf, e.g. for the
reverse-KL generator on joints with empty cells).

Only the logarithmic generators (kl, reverse-kl) produce values on a log
scale; those are computed in nats and honor unit conversion.  The remaining
built-ins (chi2, tv, hellinger2) are dimensionless and are reported
unchanged whatever unit is requested.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .dist import (
    NEG_TOL,
    InfoValue,
    JointDistribution,
    info_from_nats,
    marginals,
)
from .errors import InvalidGenerator

#: f(1) must vanish within this tolerance
GEN_ONE_TOL = 1e-12
#: midpoint convexity violations beyond this on the spot-check grid warn
GEN_CONVEXITY_TOL = 1e-9


@dataclass(frozen=True)
class FGenerator:
    """A convex generator ``f`` with an explicit limit value at 0.

    ``fn`` must be vectorized over positive arrays; it is never called at 0.
    ``unit_scaled`` marks log-scale generators whose raw value is in nats
    and should be rescaled when bits are requested.

    Construction checks f(1) = 0 exactly (within ``GEN_ONE_TOL``) and
    spot-checks midpoint convexity on a grid in (0, 10]; convexity is a
    soft check and only warns, since a finite grid cannot prove it.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float
    unit_scaled: bool = False

    def __post_init__(self):
        at_one = float(np.asarray(self.fn(np.array([1.0])))[0])
        if abs(at_one) > GEN_ONE_TOL:
            raise InvalidGenerator(
                f"generator {self.name!r} has f(1) = {at_one:.3e}, expected 0")
        if self.value_at_zero < 0.0:
            raise InvalidGenerator(
                f"generator {self.name!r} has negative limit at 0")
        grid = np.linspace(0.05, 10.0, 40)
        vals = np.asarray(self.fn(grid), dtype=float)
        mid = np.asarray(self.fn(0.5 * (grid[:, None] + grid[None, :])), dtype=float)
        excess = mid - 0.5 * (vals[:, None] + vals[None, :])
        worst = float(np.max(excess))
        if worst > GEN_CONVEXITY_TOL:
            warnings.warn(
                f"generator {self.name!r} violates midpoint convexity by "
                f"{worst:.3e} on the spot-check grid",
                stacklevel=2)


def _builtins():
    gens = [
        FGenerator("kl", lambda u: u * np.log(u), 0.0, unit_scaled=True),
        FGenerator("reverse-kl", lambda u: -np.log(u), float("inf"), unit_scaled=True),
        FGenerator("chi2", lambda u: (u - 1.0) ** 2, 1.0),
        FGenerator("tv", lambda u: 0.5 * np.abs(u - 1.0), 0.5),
        FGenerator("hellinger2", lambda u: (np.sqrt(u) - 1.0) ** 2, 1.0),
    ]
    return MappingProxyType({g.name: g for g in gens})


#: read-only registry of the built-in generators
BUILTIN_GENERATORS = _builtins()


def get_generator(name: str) -> FGenerator:
    try:
        return BUILTIN_GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GENERATORS))
        raise InvalidGenerator(f"unknown generator {name!r}; built-ins: {known}") from None


def f_information(j: JointDistribution, generator,
                  unit: str = "bits") -> InfoValue:
    """f-information of a joint pmf for the given generator (or its name).

    May legitimately return +inf (generators with an infinite limit at 0 on
    joints with empty cells).  Unit conversion applies only to log-scale
    generators; dimensionless ones pass through unchanged.
    """
    if isinstance(generator, str):
        generator = get_generator(generator)
    px, py = marginals(j)
    weight = np.outer(px, py)
    ratio = j.p / weight
    vals = np.empty_like(ratio)
    pos = ratio > 0.0
    vals[pos] = generator.fn(ratio[pos])
    vals[~pos] = generator.value_at_zero
    total = float(np.sum(weight * vals))
    if generator.unit_scaled:
        return info_from_nats(total, unit)
    if total < 0.0 and total >= -NEG_TOL:
        total = 0.0
    return InfoValue(total, unit)

