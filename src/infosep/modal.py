"""Spectral decomposition of joint dependence and sufficiency-based reduction.

The dependence of a joint pmf P(x, y) is captured by the centered density
ratio B[x, y] = P(x, y) / (P_X(x) P_Y(y)) - 1.  Weighting it by the square
roots of the marginals gives M[x, y] = sqrt(P_X(x)) B[x, y] sqrt(P_Y(y)),
whose SVD yields orthonormal feature tables under marginal weights:

    B[x, y] = sum_i  sigma_i f_i(x) g_i(y),      1 >= sigma_1 >= ... > 0

with E[f_i f_j] = E[g_i g_j] = delta_ij and E[f_i] = E[g_i] = 0.  The
constant (unit) mode of the unweighted ratio matrix never appears here:
subtracting the product of the marginals removes it exactly, which keeps
the decomposition stable even when further singular values equal 1 (the
degenerate case that matters for common-part extraction).

Sufficiency of a pair of symbol maps (s, t) is equivalent to the density
ratio r = P / (P_X P_Y) being constant on the preimage blocks of (s, t), so
one matrix decides symbol identity: the minimal sufficient pair groups the
x symbols whose rows of r coincide and the y symbols whose columns do, and
the sufficiency check compares r with the reduced table's ratios.  Rows are
compared shifted by one where positive, so that rows with different zero
patterns never merge, and a row with an infinite ratio (beside a subnormal
marginal) stays a symbol of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._grouping import group_rows
from .dist import DeterministicMap, JointDistribution, marginals, pushforward
from .errors import DimensionError, InsufficientStatistic, NumericalError

#: singular values at or below this are treated as numerically zero rank
RANK_TOL = 1e-10
#: singular values may exceed 1 by at most this much before being an error
UNIT_SLACK = 1e-9
#: density-ratio rows closer than this in sup norm, with equal zero patterns
#: and all entries finite, describe the same symbol
ROW_GROUP_TOL = 1e-10
#: sufficiency verdict tolerance on the density-ratio gap
SUFFICIENCY_TOL = 1e-9


@dataclass(frozen=True)
class ModalDecomposition:
    """Dependence spectrum and feature tables of a joint pmf.

    ``F`` (nx, rank) and ``G`` (ny, rank) hold the feature values; column i
    is the pair (f_i, g_i) attached to ``sigmas[i]``.  Columns are
    orthonormal under the respective marginal weight and are sign-fixed so
    the first significantly nonzero entry of each f column is positive.
    """

    rank: int
    sigmas: np.ndarray
    F: np.ndarray
    G: np.ndarray
    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        for name in ("sigmas", "F", "G", "px", "py"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.sigmas.shape != (self.rank,):
            raise DimensionError("sigma vector does not match rank")
        if self.F.shape != (self.px.size, self.rank):
            raise DimensionError("F table does not match (nx, rank)")
        if self.G.shape != (self.py.size, self.rank):
            raise DimensionError("G table does not match (ny, rank)")


def modal_decompose(j: JointDistribution) -> ModalDecomposition:
    """Decompose the dependence of a joint pmf into orthonormal modes.

    Works on the marginally weighted centered ratio matrix, so the trivial
    constant mode is removed exactly before the SVD; this stays well defined
    when nontrivial singular values equal 1 (perfectly correlated parts).
    Singular values are sorted descending, clipped to at most 1, and
    truncated at ``RANK_TOL``; the rank never exceeds min(nx, ny) - 1.
    """
    px, py = marginals(j)
    # one marginal at a time: the product px * py can underflow to zero
    m = (j.p - np.outer(px, py)) / np.sqrt(px)[:, None] / np.sqrt(py)
    try:
        u, sig, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    keep = sig > RANK_TOL
    keep[min(j.nx, j.ny) - 1:] = False  # weighted centered ratio has deficient rank
    sig = sig[keep]
    u = u[:, keep]
    vt = vt[keep]
    if sig.size and sig[0] > 1.0 + UNIT_SLACK:
        raise NumericalError(f"leading singular value {sig[0]!r} exceeds 1")
    sig = np.minimum(sig, 1.0)
    f = u / np.sqrt(px)[:, None]
    g = vt.T / np.sqrt(py)[:, None]
    for i in range(sig.size):
        col = f[:, i]
        nz = np.nonzero(np.abs(col) > 1e-9 * np.abs(col).max())[0]
        if col[nz[0]] < 0.0:
            f[:, i] = -f[:, i]
            g[:, i] = -g[:, i]
    return ModalDecomposition(rank=int(sig.size), sigmas=sig, F=f, G=g, px=px, py=py)


def _density_ratio(j: JointDistribution) -> np.ndarray:
    """The density ratio ``P / (P_X P_Y)``, divided one marginal at a time.

    The product ``px * py`` can underflow to zero, so it is never formed.
    ``P / px`` is at most 1, so an entry overflows to ``+inf``, silently,
    only beside a subnormal y marginal.
    """
    px, py = marginals(j)
    with np.errstate(over="ignore"):
        return j.p / px[:, None] / py


def minimal_sufficient_maps(j: JointDistribution):
    """Coarsest per-coordinate maps that preserve the dependence exactly.

    Groups x symbols whose rows of the density ratio ``r`` coincide within
    ``ROW_GROUP_TOL`` in sup norm (transitively), and y symbols by their
    columns of ``r``.  The rows compared are those of ``r + (r > 0)``, so
    rows with different zero patterns lie at least 1 apart, and a row with
    an infinite entry forms a class of its own (see `group_rows`).  Class
    indices follow first occurrence, so repeated calls agree.
    """
    r = _density_ratio(j)
    r = r + (r > 0.0)
    s = DeterministicMap(group_rows(r, ROW_GROUP_TOL))
    t = DeterministicMap(group_rows(r.T, ROW_GROUP_TOL))
    return s, t


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of a sufficiency test for a pair of symbol maps.

    ``reduced`` is the pushforward of the joint through (s, t), the table
    the test compared against; it is returned whatever the verdict.
    """

    sufficient: bool
    max_ratio_gap: float
    reduced: JointDistribution


def check_sufficiency(j: JointDistribution, s: DeterministicMap,
                      t: DeterministicMap) -> SufficiencyVerdict:
    """Test whether (s, t) preserve the dependence structure of ``j``.

    The criterion is equality of density ratios: the pair is sufficient iff
    P(x,y) / (P_X P_Y) equals the reduced ratio at (s(x), t(y)) for every
    cell, within ``SUFFICIENCY_TOL``; equal entries, matching infinities
    included, count as no gap.  The table is aggregated once, by
    `pushforward`, which raises `DimensionError` for maps that do not cover
    the joint's alphabets; the aggregate is returned as ``reduced``.
    """
    red = pushforward(j, s, t)
    ratio = _density_ratio(j)
    ratio_red = _density_ratio(red)[np.ix_(s.assignment, t.assignment)]
    diff = np.subtract(ratio, ratio_red, out=np.zeros_like(ratio),
                       where=ratio != ratio_red)
    gap = float(np.max(np.abs(diff)))
    return SufficiencyVerdict(sufficient=gap <= SUFFICIENCY_TOL,
                              max_ratio_gap=gap, reduced=red)


def reduce_joint(j: JointDistribution, s: DeterministicMap, t: DeterministicMap,
                 strict: bool = False) -> JointDistribution:
    """Aggregate ``j`` through (s, t); with ``strict`` require sufficiency."""
    if not strict:
        return pushforward(j, s, t)
    verdict = check_sufficiency(j, s, t)
    if not verdict.sufficient:
        raise InsufficientStatistic(
            f"density-ratio gap {verdict.max_ratio_gap:.3e} exceeds {SUFFICIENCY_TOL:g}")
    return verdict.reduced
