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


def _ib_run(q, px, pygx, py, beta):
    """Self-consistent runs in lockstep; returns (q, converged, history, cycles).

    ``q`` stacks the initial kernels ``(runs, nx, card)`` and ``beta`` holds
    each run's multiplier.  Each refresh cycle computes P(U) and P(Y|U) of
    every running kernel once and updates the kernels; that is all the
    loop does.  A run stops once its convergence test has accepted a
    kernel, or after ``MAX_ITERS`` cycles, so it ends where it ends alone.

    The (I(U;X), I(U;Y)) pairs in nats of every kernel a run holds are
    recorded afterwards: the loop keeps the kernels, and `_ib_pairs`
    evaluates them in one call when the runs stop or when the kept kernels
    reach a batch sized so that they and that call's temporaries stay
    within ``MAX_SOLVER_ENTRIES`` entries.  ``history[c]`` holds every
    run's pair after ``c`` cycles, shaped ``(runs, 2)``, a stopped run
    repeating its last one; ``cycles[r]`` counts run r's cycles, so its
    trace is ``history[:cycles[r] + 1, r]`` and its last pair belongs to
    ``q[r]``.
    """
    pxy = px[:, None] * pygx
    # every run writes its row of ``out`` when it stops
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    runs, nx, card = q.shape
    live = np.arange(runs)
    # a stopped run's entries are final: whether its last update converged,
    # and its number of refresh cycles; ``settled`` holds the first for
    # the live runs
    conv, cycles = np.zeros(runs, dtype=bool), np.zeros(runs, dtype=int)
    settled = np.zeros(runs, dtype=bool)
    beta = np.asarray(beta, dtype=float)[:, None, None]
    # kernels kept for `_ib_pairs`: one takes nx * card entries, and its
    # evaluation's temporaries at most three times card * (nx + ny) more
    batch = max(1, MAX_SOLVER_ENTRIES // (4 * card * (nx + pygx.shape[1])))
    kept, held, pairs = [], 0, []
    # log P(u) is -inf for an unused u
    with np.errstate(divide="ignore"):
        for cycle in range(MAX_ITERS + 1):
            if held + len(live) > batch and kept:
                pairs.append(_ib_pairs(np.concatenate(kept), px, pxy, py))
                kept, held = [], 0
            kept.append(q)
            held += len(live)
            stop = settled | (cycle == MAX_ITERS)
            if stop.any():
                ended = live[stop]
                out[ended], conv[ended], cycles[ended] = (
                    q[stop], settled[stop], cycle)
                if stop.all():
                    break
                live, q, beta = live[~stop], q[~stop], beta[~stop]
            pu, pygu = _refresh(q, px, pxy)
            # KL(P(Y|X=x) || P(Y|U=u)); +inf where the support is not covered
            dist = np.add.reduce(rel_entr(pygx[:, None, :], pygu[:, None]),
                                 axis=3)
            lnq = np.log(pu)[:, None, :] - beta * dist
            qn = np.exp(lnq - logsumexp(lnq))
            settled = np.maximum.reduce(np.abs(qn - q), axis=(1, 2)) <= CONV_TOL
            q = qn
    pairs.append(_ib_pairs(np.concatenate(kept), px, pxy, py))
    # the kernels were kept cycle by cycle, the live runs of a cycle in
    # order: exactly the cells (c, r) with c <= cycles[r], row-major
    steps = np.arange(cycle + 1)[:, None]
    history = np.empty((cycle + 1, runs, 2))
    history[steps <= cycles] = np.concatenate(pairs)
    history = history[np.minimum(steps, cycles), np.arange(runs)]
    return out, conv, history, cycles


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
    the winning run: whether it met ``CONV_TOL`` within ``MAX_ITERS``
    refresh cycles.  For beta <= 1 the constant variable is returned
    immediately (Lagrangian 0).  Raises `ValueError` for a ``beta`` that is
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
