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
feasibility tolerance.  Results are deterministic given (seed, restarts).
"""

from __future__ import annotations

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
)
from .errors import DimensionError, NoFeasiblePoint, NumericalError
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


def gacs_korner(j: JointDistribution, unit_tol: float = UNIT_TOL,
                unit: str = "bits") -> GkResult:
    """Deterministic common part via the dependence spectrum.

    ``k`` counts the singular values within ``unit_tol`` of 1.  For k = 0
    the common part is trivial (constant maps, value 0).  Otherwise the x
    and y feature rows of the unit modes are grouped jointly, which aligns
    the two maps on one alphabet; the value is the entropy of the common
    symbol distribution.
    """
    md = modal_decompose(j)
    k = int(np.sum(md.sigmas >= 1.0 - unit_tol))
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


def _wyner_eval(q, pxy_flat, nx, ny, lam):
    """Objective parts (nats) and the row-scaled gradient.

    Returns (I(W;XY), I(X;Y|W), grad); rows of zero-probability cells get a
    zero gradient since their kernel entries are irrelevant.
    """
    pw = pxy_flat @ q
    pj = pxy_flat[:, None] * q
    cube = pj.reshape(nx, ny, -1)
    pxw = cube.sum(axis=1)
    pyw = cube.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lr1 = np.log(q) - np.log(pw)[None, :]
        lr2 = (np.log(cube) + np.log(pw)[None, None, :]
               - np.log(pxw)[:, None, :] - np.log(pyw)[None, :, :])
        value = float(np.where(pj > 0.0, pj * lr1, 0.0).sum())
        resid = float(np.where(cube > 0.0, cube * lr2, 0.0).sum())
        g = lr1 + lam * lr2.reshape(q.shape[0], -1)
        grad = np.where(pxy_flat[:, None] > 0.0, g, 0.0)
    return value, resid, grad


def _renormalize(q):
    q = np.clip(q, KERNEL_FLOOR, None)
    return q / q.sum(axis=1, keepdims=True)


def _wyner_stage(q, pxy_flat, nx, ny, lam, max_iters, step_tol=1e-10):
    """Exponentiated-gradient descent at one fixed penalty weight.

    Steps are accepted only when the objective does not increase, with the
    step size halved on rejection, so each stage is a descent run.  The
    stage ends when the kernel stalls in sup norm or the objective stops
    improving for a few consecutive iterations.  Each trial point is
    evaluated once, gradient included, and an accepted step carries that
    gradient into the next iteration, so each trial step costs one
    evaluation.
    """
    value, resid, g = _wyner_eval(q, pxy_flat, nx, ny, lam)
    f_cur = value + lam * resid
    eta = 0.5
    stalled = 0
    for _ in range(max_iters):
        accepted = False
        for _ in range(40):
            lnq = np.log(q) - eta * g
            lnq -= logsumexp(lnq)
            qn = _renormalize(np.exp(lnq))
            value, resid, gn = _wyner_eval(qn, pxy_flat, nx, ny, lam)
            f_new = value + lam * resid
            if f_new <= f_cur + 1e-12:
                accepted = True
                break
            eta *= 0.5
            if eta < 1e-13:
                break
        if not accepted:
            break
        delta = float(np.max(np.abs(qn - q)))
        gain = f_cur - f_new
        q = qn
        g = gn
        f_cur = f_new
        eta = min(eta * 1.5, 20.0)
        if delta <= step_tol:
            break
        stalled = stalled + 1 if gain <= 1e-13 * (1.0 + abs(f_cur)) else 0
        if stalled >= 3:
            break
    return q


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

    The finite penalty weights bias the value low: it can fall slightly
    below the true common information (on DSBS(0.1), 0.8726099 bits against
    the closed form 0.8727606).  Value plus residual always bounds I(X;Y)
    from above, so the value is usable even for unconverged runs.

    Raises `DimensionError` before allocating when the kernel would hold
    more than ``MAX_SOLVER_ENTRIES`` (``nx * ny * card_w``) entries.
    """
    nx, ny = j.nx, j.ny
    card = int(card_w) if card_w is not None else nx * ny
    if card < 1:
        raise DimensionError("card_w must be at least 1")
    if nx * ny * card > MAX_SOLVER_ENTRIES:
        raise DimensionError(
            f"Wyner kernel of {nx}x{ny} cells by {card} auxiliary symbols "
            f"exceeds {MAX_SOLVER_ENTRIES} entries; lower card_w "
            f"(--wyner-card) or reduce the input")
    pxy_flat = j.p.ravel()
    rng = np.random.default_rng(seed)

    inits = []
    if card >= nx:
        q = np.zeros((nx * ny, card))
        q[np.arange(nx * ny), np.repeat(np.arange(nx), ny)] = 1.0
        inits.append(q)
    if card >= ny:
        q = np.zeros((nx * ny, card))
        q[np.arange(nx * ny), np.tile(np.arange(ny), nx)] = 1.0
        inits.append(q)
    for _ in range(int(restarts)):
        inits.append(rng.dirichlet(np.ones(card), size=nx * ny))

    resid_limit = residual_tol * LN2  # tolerance is stated in bits
    runs = []
    for idx, q0 in enumerate(inits):
        # Per-run generator for the stage-transition jitter below; keyed by
        # (seed, index) so runs stay reproducible individually.
        run_rng = np.random.default_rng((seed, idx))
        q = _renormalize(np.array(q0, dtype=float))
        for stage, lam in enumerate(PENALTY_SCHEDULE):
            if stage:
                # Constant-W kernels are exact fixed points of the row-wise
                # multiplicative update (the penalty gradient is constant
                # across each row there), yet they stop being optimal once
                # the penalty weight grows.  A small seeded jitter at each
                # weight change breaks that symmetry so the descent can
                # leave the degenerate point; the stage re-converges anyway.
                noise = run_rng.standard_normal(q.shape)
                q = _renormalize(q * np.exp(1e-3 * noise))
            tol = 1e-10 if lam == PENALTY_SCHEDULE[-1] else 1e-8
            q = _wyner_stage(q, pxy_flat, nx, ny, lam, max_iters, step_tol=tol)
        value, resid, _ = _wyner_eval(q, pxy_flat, nx, ny, 0.0)
        runs.append((value, max(resid, 0.0), q, idx))

    feasible = [r for r in runs if r[1] <= resid_limit]
    if feasible:
        best = min(feasible, key=lambda r: (r[0], r[3]))
        converged = True
    else:
        best = min(runs, key=lambda r: (r[1], r[3]))
        converged = False
    value, resid, q, _ = best
    return WynerResult(
        value=info_from_nats(value, unit),
        card_w=card,
        kernel=ConditionalKernel(q),
        markov_residual=info_from_nats(resid, unit),
        restarts_used=len(inits),
        converged=converged,
    )


def wyner_grid_oracle(j: JointDistribution, grid_steps: int = 101,
                      match_tol: float | None = None,
                      unit: str = "bits") -> InfoValue:
    """Brute-force Wyner estimate for 2x2 joints with a binary auxiliary.

    Grids (P(W=0), P(X=0|W=0), P(Y=0|W=0)) on a ``grid_steps``-per-axis
    lattice, solves the remaining component parameters from the marginal
    constraints, keeps lattice points whose induced mixture matches the
    target joint within ``match_tol`` (half a lattice cell by default), and
    returns the smallest I(W; X, Y) among them.  Slow and deliberately
    independent of the descent solver; intended for cross-checks.
    """
    if j.nx != 2 or j.ny != 2:
        raise DimensionError("grid oracle is defined for 2x2 joints only")
    if grid_steps < 3:
        raise ValueError("grid_steps must be at least 3")
    h = 1.0 / (grid_steps - 1)
    if match_tol is None:
        match_tol = 0.5 * h
    px, py = marginals(j)
    p00 = j.p[0, 0]
    axis = np.linspace(0.0, 1.0, grid_steps)
    a0, b0 = np.meshgrid(axis, axis, indexing="ij")
    best = np.inf
    for w in axis[1:-1]:
        a1 = (px[0] - w * a0) / (1.0 - w)
        b1 = (py[0] - w * b0) / (1.0 - w)
        valid = (a1 > -1e-12) & (a1 < 1.0 + 1e-12) & \
                (b1 > -1e-12) & (b1 < 1.0 + 1e-12)
        if not valid.any():
            continue
        a1 = np.clip(a1, 0.0, 1.0)
        b1 = np.clip(b1, 0.0, 1.0)
        comp_x = (np.stack([a0, 1.0 - a0]), np.stack([a1, 1.0 - a1]))
        comp_y = (np.stack([b0, 1.0 - b0]), np.stack([b1, 1.0 - b1]))
        weights = (w, 1.0 - w)
        cells = [[None, None], [None, None]]
        for x in (0, 1):
            for y in (0, 1):
                cells[x][y] = sum(weights[c] * comp_x[c][x] * comp_y[c][y]
                                  for c in (0, 1))
        ok = valid & (np.abs(cells[0][0] - p00) <= match_tol)
        if not ok.any():
            continue
        info = np.zeros_like(a0)
        with np.errstate(divide="ignore", invalid="ignore"):
            for c in (0, 1):
                for x in (0, 1):
                    for y in (0, 1):
                        atom = weights[c] * comp_x[c][x] * comp_y[c][y]
                        term = atom * np.log(comp_x[c][x] * comp_y[c][y] / cells[x][y])
                        info += np.where(atom > 0.0, term, 0.0)
        candidate = float(info[ok].min())
        best = min(best, candidate)
    if not np.isfinite(best):
        raise NoFeasiblePoint(
            f"no lattice point matches the joint within {match_tol:g}")
    return info_from_nats(best, unit)
