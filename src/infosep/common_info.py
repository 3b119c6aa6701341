"""Common information of a pair of discrete sources.

Two notions are computed here.

Deterministic common part (Gacs-Korner): the largest random variable that
both coordinates determine almost surely.  Spectrally, each dependence mode
with singular value exactly 1 carries a pair of features with f(X) = g(Y)
almost surely; grouping symbols by the unit-mode feature vectors yields the
common alphabet and the value is its entropy.  A support-graph construction
(`gk_via_components`) computes the same object from connected components of
the bipartite support.  It builds its graph without the spectrum, so it
cross-checks the spectral route, though both label components with the one
labeller in `_grouping`.

Stochastic common information (Wyner): the least I(W; X, Y) over auxiliary
variables W making X and Y conditionally independent.  `wyner_solve`
minimizes the penalized objective I(W;X,Y) + lam * I(X;Y|W) over conditional
kernels P(w | x, y) by multi-start exponentiated-gradient descent with the
penalty weight ramped over the fixed schedule (1, 10, 100, 1000); a run is
accepted when its final conditional mutual information falls below the
feasibility tolerance.  The starts are independent runs, so they advance in
lockstep as one batch: each array operation of a descent round serves every
start at once, and each start's result is the one it gives when run alone.
Results are deterministic given (seed, restarts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grouping import group_rows, label_components
from .dist import (
    LN2,
    MAX_SOLVER_ENTRIES,
    ConditionalKernel,
    DeterministicMap,
    InfoValue,
    JointDistribution,
    entropy,
    info_from_nats,
    logsumexp,
    marginals,
    rel_entr,
)
from .errors import DimensionError, NumericalError
from .modal import modal_decompose

#: singular values within this of 1 count as unit (perfectly aligned) modes
UNIT_TOL = 1e-8
#: feature rows within this in sup norm belong to one common symbol
FEATURE_GROUP_TOL = 1e-8
#: penalty weight schedule for the Wyner solver
PENALTY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)
#: kernel entries are floored at this to keep logarithms finite
KERNEL_FLOOR = 1e-16


@dataclass(frozen=True)
class GkResult:
    """Deterministic common part of a joint pmf.

    ``common_map_x`` and ``common_map_y`` land in one shared alphabet and
    agree almost surely: every support cell (x, y) has
    ``common_map_x(x) == common_map_y(y)``.
    """

    value: InfoValue
    k: int
    common_map_x: DeterministicMap
    common_map_y: DeterministicMap
    component_count: int


def _entropy_of_classes(px: np.ndarray, labels: np.ndarray,
                        n_classes: int, unit: str) -> InfoValue:
    masses = np.zeros(n_classes)
    np.add.at(masses, labels, px)
    return entropy(masses, unit)


def gacs_korner(j: JointDistribution, unit: str = "bits") -> GkResult:
    """Deterministic common part via the dependence spectrum.

    ``k`` counts the singular values within ``UNIT_TOL`` of 1.  For k = 0
    the common part is trivial (constant maps, value 0).  Otherwise the x
    and y feature rows of the unit modes are grouped jointly, which aligns
    the two maps on one alphabet; the value is the entropy of the common
    symbol distribution.
    """
    md = modal_decompose(j)
    k = int(np.sum(md.sigmas >= 1.0 - UNIT_TOL))
    if k == 0:
        return GkResult(
            value=InfoValue(0.0, unit),
            k=0,
            common_map_x=DeterministicMap.constant(j.nx),
            common_map_y=DeterministicMap.constant(j.ny),
            component_count=1,
        )
    stacked = np.vstack([md.F[:, :k], md.G[:, :k]])
    labels = group_rows(stacked, FEATURE_GROUP_TOL)
    labels_x = labels[:j.nx]
    labels_y = labels[j.nx:]
    n_classes = int(labels.max()) + 1
    if np.unique(labels_x).size != n_classes or np.unique(labels_y).size != n_classes:
        raise NumericalError(
            "unit-mode features do not induce a shared common alphabet")
    xs, ys = np.nonzero(j.p > 0.0)
    if np.any(labels_x[xs] != labels_y[ys]):
        raise NumericalError(
            "common maps disagree on a support cell; unit modes are not exact")
    return GkResult(
        value=_entropy_of_classes(md.px, labels_x, n_classes, unit),
        k=k,
        common_map_x=DeterministicMap(labels_x, n_classes),
        common_map_y=DeterministicMap(labels_y, n_classes),
        component_count=n_classes,
    )


def gk_via_components(j: JointDistribution, unit: str = "bits") -> GkResult:
    """Deterministic common part from the bipartite support graph.

    Connects x and y symbols whenever P(x, y) > 0; the connected components
    are exactly the common symbols.  The graph is built without the
    spectrum, so this cross-checks the spectral route.
    """
    xs, ys = np.nonzero(j.p > 0.0)
    labels = label_components(j.nx + j.ny, xs, j.nx + ys)
    labels_x = labels[:j.nx]
    labels_y = labels[j.nx:]
    n_classes = int(labels.max()) + 1
    px, _ = marginals(j)
    return GkResult(
        value=_entropy_of_classes(px, labels_x, n_classes, unit),
        k=n_classes - 1,
        common_map_x=DeterministicMap(labels_x, n_classes),
        common_map_y=DeterministicMap(labels_y, n_classes),
        component_count=n_classes,
    )


@dataclass(frozen=True)
class WynerResult:
    """Outcome of the penalized Wyner minimization.

    ``kernel`` holds P(w | x, y) with rows indexed by the flattened (x, y)
    cell in row-major order.  ``markov_residual`` is the achieved I(X;Y|W);
    ``converged`` records whether any restart met the feasibility tolerance.
    """

    value: InfoValue
    card_w: int
    kernel: ConditionalKernel
    markov_residual: InfoValue
    restarts_used: int
    converged: bool


def _wyner_eval(q, pxy, h_xy):
    """Objective parts (nats) of a stack of kernels, from its marginal sums.

    ``q`` holds kernels P(w | x, y) shaped ``(..., nx, ny, card)``, ``pxy``
    is P(x, y) shaped ``(nx, ny, 1)`` and ``h_xy`` is the sum of
    ``P(x, y) log P(x, y)`` over the support.  The kernel is floored at
    ``KERNEL_FLOOR``, so every log here is finite and a cell off the support
    adds nothing to either sum.  Returns (I(W;XY), I(X;Y|W), logs), the two
    values shaped like the leading axes of ``q``; ``logs`` holds log q and
    the logs of P(w), P(x, w) and P(y, w), for `_wyner_grad`.
    """
    pj = pxy * q
    pxw = pj.sum(axis=-2)
    pyw = pj.sum(axis=-3)
    pw = pxw.sum(axis=-2)
    logs = lnq, ln_pw, ln_pxw, ln_pyw = (
        np.log(q), np.log(pw), np.log(pxw), np.log(pyw))
    s_q = np.multiply(pj, lnq, out=pj).sum(axis=(-3, -2, -1))
    s_w = (pw * ln_pw).sum(axis=-1)
    value = s_q - s_w
    resid = (h_xy + s_q + s_w - (pxw * ln_pxw).sum(axis=(-2, -1))
             - (pyw * ln_pyw).sum(axis=(-2, -1)))
    return value, resid, logs


def _wyner_grad(logs, support, lam):
    """Row-scaled gradient of I(W;XY) + lam * I(X;Y|W) from `_wyner_eval` logs.

    The gradient is that of the objective as `_wyner_eval` computes it,
    with ``h_xy`` held fixed; on stochastic kernels it differs from the
    gradient of the full expression by a constant per row, which the
    row-normalized update ignores.  ``support`` is the 0/1 indicator of
    P(x, y) > 0 shaped ``(nx, ny, 1)``: rows of zero-probability cells get a
    zero gradient since their kernel entries are irrelevant.
    """
    lnq, ln_pw, ln_pxw, ln_pyw = logs
    ln_pw = ln_pw[..., None, None, :]
    g = lnq + ln_pw
    g -= ln_pxw[..., :, None, :]
    g -= ln_pyw[..., None, :, :]
    g *= lam
    g += lnq - ln_pw
    g *= support
    return g


def _renormalize(q):
    q = np.maximum(q, KERNEL_FLOOR)
    q /= q.sum(axis=-1, keepdims=True)
    return q


def _wyner_stage(q, pxy, h_xy, support, lam, max_iters,
                 step_tol=1e-10):
    """Exponentiated-gradient descent at one fixed penalty weight.

    ``q`` is a stack ``(starts, nx, ny, card)`` of kernels that advance in
    lockstep: each round makes one trial step per live start, and one
    `_wyner_eval` call evaluates all of them.  Steps are accepted only when
    the objective does not increase, with the step size halved on
    rejection, so each start is a descent run.  A start ends when its kernel
    stalls in sup norm, its objective stops improving for a few consecutive
    iterations, its step size or its 40 trials of one step run out, or
    after ``max_iters`` accepted steps; it then leaves the later rounds.
    Each start keeps its own step size and counts, so it takes the steps it
    takes when run alone.  The gradient is built only at accepted points.
    Returns the final stack and each start's number of accepted steps.
    """
    # ``q`` starts as ``out`` itself: until the first start ends, every row
    # is live and is written again when its start ends.
    q = out = np.array(q, dtype=float)
    starts = len(q)
    steps = np.zeros(starts, dtype=int)
    if max_iters < 1:
        return out, steps
    live = list(range(starts))
    value, resid, logs = _wyner_eval(q, pxy, h_xy)
    f = (value + lam * resid).tolist()
    lnq = logs[0]
    g = _wyner_grad(logs, support, lam)
    eta, trials, stalled, iters = ([0.5] * starts, [0] * starts,
                                   [0] * starts, [0] * starts)
    while live:
        t = np.array(eta)[:, None, None, None] * g
        np.subtract(lnq, t, out=t)
        t -= logsumexp(t)
        qn = _renormalize(np.exp(t, out=t))
        value, resid, logs = _wyner_eval(qn, pxy, h_xy)
        f_new = (value + lam * resid).tolist()
        ok = [a <= b + 1e-12 for a, b in zip(f_new, f)]
        acc = [i for i, accepted in enumerate(ok) if accepted]
        if acc:
            delta = qn - q
            delta = np.abs(delta, out=delta).max(axis=(-3, -2, -1)).tolist()
        keep, ended = [], []
        for i, accepted in enumerate(ok):
            if accepted:
                gain = f[i] - f_new[i]
                f[i] = f_new[i]
                eta[i] = min(eta[i] * 1.5, 20.0)
                trials[i] = 0
                iters[i] += 1
                stalled[i] = (stalled[i] + 1
                              if gain <= 1e-13 * (1.0 + abs(f[i])) else 0)
                stop = (delta[i] <= step_tol or stalled[i] >= 3
                        or iters[i] >= max_iters)
            else:
                eta[i] *= 0.5
                trials[i] += 1
                stop = eta[i] < 1e-13 or trials[i] >= 40
            (ended if stop else keep).append(i)
        if len(acc) == len(live):
            q, lnq = qn, logs[0]
            g = _wyner_grad(logs, support, lam)
        elif acc:
            mask = np.array(ok)[:, None, None, None]
            np.copyto(q, qn, where=mask)
            np.copyto(lnq, logs[0], where=mask)
            g[acc] = _wyner_grad(tuple(a.take(acc, axis=0) for a in logs),
                                 support, lam)
        if ended:
            out[[live[i] for i in ended]] = q[ended]
            steps[[live[i] for i in ended]] = [iters[i] for i in ended]
            q, lnq, g = q[keep], lnq[keep], g[keep]
            live, f, eta, trials, stalled, iters = (
                [s[i] for i in keep]
                for s in (live, f, eta, trials, stalled, iters))
    return out, steps


def _jitter(q, rngs):
    """Renormalized ``q * exp(1e-3 * noise)``, each start's noise drawn from
    its own generator.  A function of its own so that the noise is freed
    before the next stage allocates its work arrays."""
    noise = np.stack([rng.standard_normal(q.shape[1:]) for rng in rngs])
    return _renormalize(q * np.exp(1e-3 * noise))


def _start_kernel(kind, nx, ny, card, rng):
    """W a copy of X (``"x"``), a copy of Y (``"y"``), or a Dirichlet(1) draw."""
    if kind == "x":
        return np.repeat(np.eye(nx, card)[:, None, :], ny, axis=1)
    if kind == "y":
        return np.tile(np.eye(ny, card), (nx, 1, 1))
    return rng.dirichlet(np.ones(card), size=nx * ny).reshape(nx, ny, card)


def wyner_solve(j: JointDistribution, card_w: int | None = None,
                restarts: int = 10, max_iters: int = 1000,
                residual_tol: float = 1e-6, seed: int = 0,
                unit: str = "bits") -> WynerResult:
    """Penalty-method estimate of the Wyner common information.

    Runs the penalty-schedule descent from two deterministic starts (W a
    copy of X and W a copy of Y, both exactly feasible when the auxiliary
    alphabet is large enough) plus ``restarts`` seeded Dirichlet(1) random
    kernels.  ``residual_tol`` is in bits.  Among runs that end feasible the
    smallest value wins, ties broken by start index; if none is feasible the
    run with the smallest residual is returned with ``converged=False``.

    The starts run in lockstep as one batch (see `_wyner_stage`), in chunks
    of at most ``MAX_SOLVER_ENTRIES`` kernel entries; each start's result is
    the one it gives when run alone.

    The finite penalty weights bias the value low: it can fall slightly
    below the true common information (on DSBS(0.1), 0.8726099 bits against
    the closed form 0.8727606).  Value plus residual always bounds I(X;Y)
    from above, so the value is usable even for unconverged runs.

    Raises `ValueError` for a negative ``restarts`` or a negative or
    non-finite ``residual_tol``.  Raises `DimensionError` before allocating
    when there is no start (``card_w`` below both ``nx`` and ``ny`` and no
    restarts) or when the kernel would hold more than ``MAX_SOLVER_ENTRIES``
    (``nx * ny * card_w``) entries.
    """
    nx, ny = j.nx, j.ny
    card = int(card_w) if card_w is not None else nx * ny
    restarts = int(restarts)
    if card < 1:
        raise DimensionError("card_w must be at least 1")
    if restarts < 0:
        raise ValueError("restarts must be non-negative")
    if not (math.isfinite(residual_tol) and residual_tol >= 0.0):
        raise ValueError("residual_tol must be non-negative and finite")
    if nx * ny * card > MAX_SOLVER_ENTRIES:
        raise DimensionError(
            f"Wyner kernel of {nx}x{ny} cells by {card} auxiliary symbols "
            f"exceeds {MAX_SOLVER_ENTRIES} entries; lower card_w "
            f"(--wyner-card) or reduce the input")
    kinds = (["x"] * (card >= nx) + ["y"] * (card >= ny)
             + ["dirichlet"] * restarts)
    if not kinds:
        raise DimensionError(
            f"Wyner solver has no start: card_w {card} is below both "
            f"alphabet sizes ({nx}x{ny}), so W cannot copy X or Y, and "
            f"restarts is 0; raise card_w (--wyner-card) or restarts "
            f"(--restarts)")
    pxy = j.p[:, :, None]
    support = (pxy > 0.0).astype(float)
    h_xy = float(rel_entr(pxy, 1.0).sum())
    rng = np.random.default_rng(seed)

    resid_limit = residual_tol * LN2  # tolerance is stated in bits
    chunk = max(1, MAX_SOLVER_ENTRIES // (nx * ny * card))
    best = None
    for lo in range(0, len(kinds), chunk):
        idxs = range(lo, min(lo + chunk, len(kinds)))
        q = _renormalize(np.stack(
            [_start_kernel(kinds[i], nx, ny, card, rng) for i in idxs]))
        # Per-run generators for the stage-transition jitter below; keyed by
        # (seed, index) so runs stay reproducible individually.
        run_rngs = [np.random.default_rng((seed, i)) for i in idxs]
        for stage, lam in enumerate(PENALTY_SCHEDULE):
            if stage:
                # Constant-W kernels are exact fixed points of the row-wise
                # multiplicative update (the penalty gradient is constant
                # across each row there), yet they stop being optimal once
                # the penalty weight grows.  A small seeded jitter at each
                # weight change breaks that symmetry so the descent can
                # leave the degenerate point; the stage re-converges anyway.
                q = _jitter(q, run_rngs)
            tol = 1e-10 if lam == PENALTY_SCHEDULE[-1] else 1e-8
            q, _ = _wyner_stage(q, pxy, h_xy, support, lam,
                                max_iters, step_tol=tol)
        values, resids = _wyner_eval(q, pxy, h_xy)[:2]
        for k, i in enumerate(idxs):
            value, resid = float(values[k]), max(float(resids[k]), 0.0)
            # feasible runs first, by value; otherwise by residual
            key = (0, value, i) if resid <= resid_limit else (1, resid, i)
            if best is None or key < best[0]:
                best = (key, value, resid, q[k].reshape(nx * ny, card).copy())
    key, value, resid, q = best
    return WynerResult(
        value=info_from_nats(value, unit),
        card_w=card,
        kernel=ConditionalKernel(q),
        markov_residual=info_from_nats(resid, unit),
        restarts_used=len(kinds),
        converged=key[0] == 0,
    )

