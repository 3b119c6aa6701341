"""Information bottleneck: compression variables and the rate curve.

For a multiplier beta > 1 the bottleneck Lagrangian

    L(U) = I(U; X) - beta * I(U; Y),        U - X - Y

is minimized over conditional kernels P(u | x) by the classical
self-consistent iteration: refresh P(u) and P(y | u) from the current
kernel, then set

    P(u | x)  proportional to  P(u) * exp(-beta * KL(P(Y|X=x) || P(Y|U=u))).

Each refresh is a block-coordinate minimization of a common variational
objective, so it never raises the Lagrangian.  The map converges only
linearly, slowly near a critical multiplier, so each iteration adds one
SQUAREM extrapolation (Varadhan and Roland 2008) and keeps its result only
when that does not raise the Lagrangian either (see `_ib_run`): the
Lagrangian never increases along a run, and the recorded per-iteration
trace makes that checkable.  For beta <= 1 the
constant variable is already optimal and the solver returns it immediately
with Lagrangian exactly 0.

The runs are independent, so every (beta, start) run of one call, whether
from `ib_fixed_point`, `ib_curve` or the CLI's ``measures``, advances in
lockstep in one ``(runs, nx, card)`` stack, split by the multi-start
policy the Wyner solver shares (`dist._multistart`) so that a stack holds
at most ``MAX_SOLVER_ENTRIES`` work entries.  Each run keeps its own
multiplier and stop rule, so it ends where it ends alone and each solution
is the one its multiplier gives alone.

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
    _multistart,
    _squarem,
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
#: a run stops after this many iterations, converged or not; an iteration
#: makes up to three refreshes (see `_ib_run`)
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


def _refresh(q, px, pxy):
    """P(U) and P(Y|U) of each kernel of a stack ``(K, nx, card)``, shaped
    ``(K, card)`` and ``(K, card, ny)``; P(Y|U=u) is 0 for an unused u."""
    pu = px @ q
    puy = q.swapaxes(1, 2) @ pxy
    return pu, np.divide(puy, pu[:, :, None], out=np.zeros_like(puy),
                         where=pu[:, :, None] > 0.0)


def _ib_pairs(q, px, pxy, py):
    """(I(U;X), I(U;Y)) in nats of each kernel of a stack ``(K, nx, card)``.

    Both are averages under P(u) of KL(P(X|u) || P(X)) and
    KL(P(Y|u) || P(Y)), so that no term divides by a P(u) or a product
    P(u) P(y) that underflowed to zero.  Every operation acts on each
    kernel alone, so a kernel's pair does not depend on the stack it is in.
    Returns an array ``(K, 2)``.
    """
    pu, pygu = _refresh(q, px, pxy)
    # P(X|U=u), laid out like q; 0 for an unused u
    pxgu = np.divide(px[:, None] * q, pu[:, None, :], out=np.zeros_like(q),
                     where=pu[:, None, :] > 0.0)
    i_ux = (pu * rel_entr(pxgu, px[:, None]).sum(axis=1)).sum(axis=1)
    i_uy = (pu * rel_entr(pygu, py).sum(axis=2)).sum(axis=1)
    return np.stack([i_ux, i_uy], axis=1)


def _ib_update(q, px, pxy, pygx, beta):
    """One refresh of each kernel of a stack: the logs of the updated
    kernels, and the kernels."""
    pu, pygu = _refresh(q, px, pxy)
    # KL(P(Y|X=x) || P(Y|U=u)); +inf where the support is not covered
    dist = np.add.reduce(rel_entr(pygx[:, None, :], pygu[:, None]), axis=3)
    # log P(u) is -inf for an unused u, and beta times the KL term may
    # overflow to +inf for a huge beta: either way the weight is 0
    with np.errstate(divide="ignore", over="ignore"):
        lnq = np.log(pu)[:, None, :] - beta * dist
    lnq -= logsumexp(lnq)
    return lnq, np.exp(lnq)


def _ib_extrapolate(ln0, ln1, q1, px, pxy, pygx, py, beta):
    """The kernels an iteration keeps from ``q``, ``q1 = T(q)`` and ``ln0``,
    ``ln1``, their logs: ``q2 = T(q1)``, or ``q3`` refreshed from the
    SQUAREM point when its Lagrangian is not above that of ``q2``.  Returns
    the kept kernels, their logs and their pairs; a function of its own so
    that the iteration's other kernels are freed before the next one."""
    ln2, q2 = _ib_update(q1, px, pxy, pygx, beta)
    ln3 = _squarem(ln0, ln1, ln2)
    ln3 -= logsumexp(ln3)
    ln3, q3 = _ib_update(np.exp(ln3), px, pxy, pygx, beta)
    runs = len(q1)
    pairs = _ib_pairs(np.concatenate([q2, q3]), px, pxy, py)
    lag = pairs[:, 0] - np.tile(beta[:, 0, 0], 2) * pairs[:, 1]
    take = (lag[runs:] <= lag[:runs])[:, None]
    pairs = np.where(take, pairs[runs:], pairs[:runs])
    take = take[:, :, None]
    return np.where(take, q3, q2), np.where(take, ln3, ln2), pairs


def _ib_run(q, px, pygx, py, beta):
    """Self-consistent runs in lockstep; returns (q, converged, history, cycles).

    ``q`` stacks the initial kernels ``(runs, nx, card)`` and ``beta`` holds
    each run's multiplier.  With T the refresh map, an iteration takes
    ``q1 = T(q)``; a run whose ``q1`` moved no entry by more than
    ``CONV_TOL`` stops there, holding ``q1``.  Every other run takes
    ``q2 = T(q1)``, extrapolates ``q, q1, q2`` by one SQUAREM step in the
    log domain (`dist._squarem`), normalized per row, and refreshes that
    point to ``q3``; it keeps ``q3`` when its Lagrangian is at most that of
    ``q2``, and ``q2`` otherwise.  Since T never raises the Lagrangian,
    neither does an iteration.  An iteration thus makes up to three
    refreshes, and a run stops after ``MAX_ITERS`` iterations at most, so
    it ends where it ends alone.

    ``history[c]`` holds every run's (I(U;X), I(U;Y)) pair in nats after
    ``c`` iterations, shaped ``(runs, 2)``, a stopped run repeating its last
    one; the pairs come from the `_ib_pairs` call the objective check makes
    anyway.  ``cycles[r]`` counts run r's iterations, so its trace is
    ``history[:cycles[r] + 1, r]`` and its last pair belongs to ``q[r]``.
    """
    pxy = px[:, None] * pygx
    # a copy, so that the first iteration holds as many kernels as the rest
    q = np.array(q, dtype=float)
    out = np.empty_like(q)
    runs = len(q)
    live = np.arange(runs)
    conv, cycles = np.zeros(runs, dtype=bool), np.zeros(runs, dtype=int)
    beta = np.asarray(beta, dtype=float)[:, None, None]
    pairs = _ib_pairs(q, px, pxy, py)
    history = [pairs.copy()]
    with np.errstate(divide="ignore"):
        lnq = np.log(q)
    for it in range(1, MAX_ITERS + 1):
        ln1, q1 = _ib_update(q, px, pxy, pygx, beta)
        settled = np.maximum.reduce(np.abs(q1 - q), axis=(1, 2)) <= CONV_TOL
        go = ~settled
        if settled.any():
            ended = live[settled]
            out[ended], conv[ended], cycles[ended] = q1[settled], True, it
            pairs[ended] = _ib_pairs(q1[settled], px, pxy, py)
            live, q, lnq, ln1, q1, beta = (
                live[go], q[go], lnq[go], ln1[go], q1[go], beta[go])
        if len(live):
            q, lnq, pairs[live] = _ib_extrapolate(lnq, ln1, q1, px, pxy, pygx,
                                                  py, beta)
        history.append(pairs.copy())
        if not len(live):
            break
    out[live], cycles[live] = q, MAX_ITERS
    return out, conv, np.array(history), cycles


def _ib_solve(j, betas, card_u, restarts, seed, unit):
    """`ib_fixed_point` at each multiplier of ``betas``, as one batch.

    Every (beta, start) run with beta > 1 goes through `_ib_run` in stacks
    of at most ``MAX_SOLVER_ENTRIES`` work entries (see
    `dist._multistart`); each solution is the one `ib_fixed_point` gives
    alone.  Returns a tuple of `IbSolution`, one per entry of ``betas``.
    """
    betas = tuple(float(b) for b in betas)
    if not all(math.isfinite(b) and b > 0.0 for b in betas):
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
    px, py = marginals(j)
    pygx = conditional_kernel(j, "y|x").k
    # U a copy of X (truncated to card symbols), then the Dirichlet draws
    copy = np.arange(card) == np.minimum(np.arange(nx), card - 1)[:, None]
    inits = [copy * 1.0, *np.random.default_rng(seed).dirichlet(
        np.ones(card), size=(int(restarts), nx))]
    groups = [g for g, beta in enumerate(betas) if beta > 1.0 for _ in inits]

    def run(idxs):
        beta = np.array([betas[groups[i]] for i in idxs])
        stack = np.stack([inits[i % len(inits)] for i in idxs])
        q, conv, history, cycles = _ib_run(stack, px, pygx, py, beta)
        for r, b in enumerate(beta.tolist()):
            pairs = history[:cycles[r] + 1, r].tolist()
            hist = [iux - b * iuy for iux, iuy in pairs]
            yield hist[-1], (q[r], bool(conv[r]), hist, pairs[-1])

    best = _multistart(groups, nx * card * j.ny, run)
    factor = 1.0 if unit == "nats" else 1.0 / LN2
    const = np.eye(1, card).repeat(nx, axis=0)
    sols = []
    for g, beta in enumerate(betas):
        # beta <= 1 has no run: the constant variable is optimal, with
        # Lagrangian exactly 0
        lag, (q, conv, hist, (iux, iuy)) = best.get(
            g, (0.0, (const, True, [0.0], (0.0, 0.0))))
        sols.append(IbSolution(
            beta=beta, card_u=card, kernel=ConditionalKernel(q),
            i_ux=info_from_nats(iux, unit), i_uy=info_from_nats(iuy, unit),
            lagrangian=InfoValue(lag * factor, unit),
            restarts_used=len(inits) if g in best else 0, converged=conv,
            history=tuple(h * factor for h in hist)))
    return tuple(sols)


def ib_fixed_point(j: JointDistribution, beta: float, card_u: int | None = None,
                   restarts: int = 10, seed: int = 0,
                   unit: str = "bits") -> IbSolution:
    """Minimize the bottleneck Lagrangian at one multiplier.

    Runs a deterministic identity-like start (U a copy of X, padded or
    truncated to the auxiliary cardinality) plus ``restarts`` seeded
    Dirichlet(1) kernels; the run with the lowest Lagrangian wins, ties
    broken by start index.  The runs advance in lockstep as one stack (see
    `_ib_run`), each ending where it ends alone.  ``converged`` reflects
    the winning run: whether a refresh moved its kernel by at most
    ``CONV_TOL`` within ``MAX_ITERS`` iterations, each of up to three
    refreshes; ``history`` has one entry per iteration, plus the start.
    For beta <= 1 the constant variable is returned immediately
    (Lagrangian 0).  Raises `ValueError` for a ``beta`` that is
    not positive and finite or a negative ``restarts``, and
    `DimensionError` when the iteration's ``nx * card_u * ny`` array would
    exceed ``MAX_SOLVER_ENTRIES`` entries.
    """
    return _ib_solve(j, (beta,), card_u, restarts, seed, unit)[0]


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
    """Sweep multipliers and build the achievable-region envelope.

    Each entry of ``solutions`` is what `ib_fixed_point` returns at that
    multiplier; the runs of all multipliers advance as one batch.  Raises
    as `ib_fixed_point` does, and `ValueError` for an empty grid.
    """
    betas = tuple(float(b) for b in beta_grid)
    if not betas:
        raise ValueError("beta grid is empty")
    sols = _ib_solve(j, betas, card_u, restarts, seed, unit)
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
    saturation rate H(S) on) the value is I(X;Y) exactly.  Raises
    `ValueError` for a negative or NaN rate.
    """
    if not rate >= 0.0:
        raise ValueError("rate must be nonnegative")
    rs = np.array([p[0] for p in curve.points])
    vs = np.array([p[1] for p in curve.points])
    val = float(np.interp(rate, rs, vs))
    val = min(max(val, 0.0), curve.mi)
    return InfoValue(val, curve.unit)
