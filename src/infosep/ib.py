"""Information bottleneck: compression variables and the rate curve.

For a multiplier beta > 1 the bottleneck Lagrangian

    L(U) = I(U; X) - beta * I(U; Y),        U - X - Y

is minimized over conditional kernels P(u | x) by the classical
self-consistent iteration: refresh P(u) and P(y | u) from the current
kernel, then set

    P(u | x)  proportional to  P(u) * exp(-beta * KL(P(Y|X=x) || P(Y|U=u))).

Each full refresh cycle is a block-coordinate minimization of a common
variational objective, so the Lagrangian never increases along a run; the
recorded per-iteration trace makes that checkable.  For beta <= 1 the
constant variable is already optimal and the solver returns it immediately
with Lagrangian exactly 0.

`ib_curve` sweeps a multiplier grid and assembles an inner approximation of
the relevance-compression frontier: achieved (I(U;X), I(U;Y)) points plus
the exactly known anchors (0, 0), (H(S), I(X;Y)) and (H(X), I(X;Y)), where
S is the minimal sufficient statistic of X; the curve is their upper
concave envelope.  The (H(S), I(X;Y)) anchor is achieved by U = S, so the
curve saturates at I(X;Y) from rate H(S) on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    LN2,
    MAX_SOLVER_ENTRIES,
    ConditionalKernel,
    InfoValue,
    JointDistribution,
    conditional_kernel,
    entropy,
    info_from_nats,
    logsumexp,
    marginals,
    mutual_information,
    pushforward,
    rel_entr,
)
from .errors import DimensionError
from .modal import minimal_sufficient_maps

#: a run has converged once no kernel entry moves by more than this
CONV_TOL = 1e-10
#: a run stops after this many refresh cycles, converged or not
MAX_ITERS = 2000


@dataclass(frozen=True)
class IbSolution:
    """Best run of the self-consistent bottleneck iteration at one beta.

    ``history`` is the per-iteration Lagrangian trace of the winning run
    (same unit as ``lagrangian``), starting at the initial kernel.
    """

    beta: float
    card_u: int
    kernel: ConditionalKernel
    i_ux: InfoValue
    i_uy: InfoValue
    lagrangian: InfoValue
    restarts_used: int
    converged: bool
    history: tuple


def _ib_run(q0, px, pygx, py, beta):
    """One self-consistent run; returns (q, converged, history).

    ``history`` holds the (I(U;X), I(U;Y)) pair in nats of the initial
    kernel and of the kernel after each refresh cycle, so the last pair
    belongs to the returned ``q``.  Each cycle computes P(U) and P(U,Y)
    once, records the pair from them, then updates the kernel.
    """
    pxy = px[:, None] * pygx
    q = q0
    history = []
    converged = False
    for cycle in range(MAX_ITERS + 1):
        pu = px @ q
        puy = q.T @ pxy
        iux = (px[:, None] * rel_entr(q, pu[None, :])).sum()
        iuy = rel_entr(puy, np.outer(pu, py)).sum()
        history.append((float(iux), float(iuy)))
        if converged or cycle == MAX_ITERS:
            break
        # P(Y|U=u), left 0 for an unused u
        pygu = np.divide(puy, pu[:, None], out=np.zeros_like(puy),
                         where=pu[:, None] > 0.0)
        # KL(P(Y|X=x) || P(Y|U=u)); +inf where the support is not covered
        dist = rel_entr(pygx[:, None, :], pygu[None]).sum(axis=2)
        with np.errstate(divide="ignore"):
            lnq = np.log(pu)[None, :] - beta * dist
        lnq = lnq - logsumexp(lnq)
        qn = np.exp(lnq)
        converged = float(np.max(np.abs(qn - q))) <= CONV_TOL
        q = qn
    return q, converged, history


def ib_fixed_point(j: JointDistribution, beta: float, card_u: int | None = None,
                   restarts: int = 10, seed: int = 0,
                   unit: str = "bits") -> IbSolution:
    """Minimize the bottleneck Lagrangian at one multiplier.

    Runs a deterministic identity-like start (U a copy of X, padded or
    truncated to the auxiliary cardinality) plus ``restarts`` seeded
    Dirichlet(1) kernels; the run with the lowest Lagrangian wins, ties
    broken by start index.  ``converged`` reflects the winning run: whether
    it met ``CONV_TOL`` within ``MAX_ITERS`` refresh cycles.  For
    beta <= 1 the constant variable is returned immediately (Lagrangian 0).
    Raises `ValueError` for a ``beta`` that is not positive and finite or a
    negative ``restarts``, and `DimensionError` when the iteration's
    ``nx * card_u * ny`` array would exceed ``MAX_SOLVER_ENTRIES`` entries.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be positive and finite")
    if restarts < 0:
        raise ValueError("restarts must be non-negative")
    nx = j.nx
    card = int(card_u) if card_u is not None else nx + 1
    if card < 1:
        raise DimensionError("card_u must be at least 1")
    if nx * card * j.ny > MAX_SOLVER_ENTRIES:
        raise DimensionError(
            f"bottleneck iteration over {nx} x {card} x {j.ny} entries "
            f"exceeds {MAX_SOLVER_ENTRIES}; lower card_u (--card-u) or "
            f"reduce the input")
    if beta <= 1.0:
        q = np.zeros((nx, card))
        q[:, 0] = 1.0
        zero = InfoValue(0.0, unit)
        return IbSolution(beta=float(beta), card_u=card,
                          kernel=ConditionalKernel(q), i_ux=zero, i_uy=zero,
                          lagrangian=InfoValue(0.0, unit), restarts_used=0,
                          converged=True, history=(0.0,))

    beta = float(beta)
    px, py = marginals(j)
    pygx = conditional_kernel(j, "y|x").k
    rng = np.random.default_rng(seed)
    inits = []
    q = np.zeros((nx, card))
    q[np.arange(nx), np.minimum(np.arange(nx), card - 1)] = 1.0
    inits.append(q)
    for _ in range(int(restarts)):
        inits.append(rng.dirichlet(np.ones(card), size=nx))

    runs = []
    for idx, q0 in enumerate(inits):
        qf, conv, pairs = _ib_run(np.array(q0, dtype=float), px, pygx, py,
                                  beta)
        hist = [iux - beta * iuy for iux, iuy in pairs]
        runs.append((hist[-1], idx, qf, conv, hist, pairs[-1]))
    lag, _, qf, conv, hist, (iux, iuy) = min(runs, key=lambda r: (r[0], r[1]))
    factor = 1.0 if unit == "nats" else 1.0 / LN2
    return IbSolution(
        beta=beta,
        card_u=card,
        kernel=ConditionalKernel(qf),
        i_ux=info_from_nats(iux, unit),
        i_uy=info_from_nats(iuy, unit),
        lagrangian=InfoValue(lag * factor, unit),
        restarts_used=len(inits),
        converged=conv,
        history=tuple(h * factor for h in hist),
    )


@dataclass(frozen=True)
class IbCurve:
    """Inner approximation of the relevance-compression frontier.

    ``points`` are the upper-concave-envelope vertices (rate, relevance)
    sorted by rate; ``solutions`` keeps the per-beta solver outputs that
    produced them.  ``saturation_rate`` is the entropy of the minimal
    sufficient statistic of X: from there on the curve equals ``mi``.
    """

    points: tuple
    betas: tuple
    solutions: tuple
    unit: str
    mi: float
    saturation_rate: float


def _upper_concave_envelope(points):
    """Vertices of the upper concave envelope of a finite point set."""
    by_r: dict[float, float] = {}
    for r, v in points:
        if r not in by_r or v > by_r[r]:
            by_r[r] = v
    pts = sorted(by_r.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (r0, v0), (r1, v1) = hull[-2], hull[-1]
            if (r1 - r0) * (p[1] - v0) - (v1 - v0) * (p[0] - r0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def ib_curve(j: JointDistribution, beta_grid, card_u: int | None = None,
             restarts: int = 10, seed: int = 0,
             unit: str = "bits") -> IbCurve:
    """Sweep multipliers and build the achievable-region envelope."""
    betas = tuple(float(b) for b in beta_grid)
    if not betas:
        raise ValueError("beta grid is empty")
    sols = tuple(
        ib_fixed_point(j, b, card_u=card_u, restarts=restarts, seed=seed,
                       unit=unit)
        for b in betas)
    mi = mutual_information(j, unit).value
    px, _ = marginals(j)
    hx = entropy(px, unit).value
    s_min, t_min = minimal_sufficient_maps(j)
    hs = entropy(marginals(pushforward(j, s_min, t_min))[0], unit).value
    pts = [(0.0, 0.0), (hs, mi), (hx, mi)]
    for sol in sols:
        r = min(max(sol.i_ux.value, 0.0), hx)
        v = min(max(sol.i_uy.value, 0.0), mi)
        pts.append((r, v))
    return IbCurve(points=_upper_concave_envelope(pts), betas=betas,
                   solutions=sols, unit=unit, mi=mi, saturation_rate=hs)


def theta_of_R(curve: IbCurve, rate: float) -> InfoValue:
    """Envelope value at a rate; piecewise linear, clamped to [0, I(X;Y)].

    Beyond the last envelope vertex (rate >= H(X), and already from the
    saturation rate H(S) on) the value is I(X;Y) exactly.
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    rs = np.array([p[0] for p in curve.points])
    vs = np.array([p[1] for p in curve.points])
    val = float(np.interp(rate, rs, vs))
    val = min(max(val, 0.0), curve.mi)
    return InfoValue(val, curve.unit)
