"""Common information of a pair of discrete sources.

Two notions are computed here.

Deterministic common part (Gacs-Korner): the largest random variable that
both coordinates determine almost surely.  It is the connected component of
the bipartite support graph that holds the cell (X, Y), so `gacs_korner`
labels those components and takes the entropy of the label.  The unit
singular values of the dependence spectrum characterize the same object
(Witsenhausen 1975); the tests check the component route against that
spectral one.

Stochastic common information (Wyner): the least I(W; X, Y) over auxiliary
variables W making X and Y conditionally independent.  `wyner_solve`
returns a certified upper bound on it.  It minimizes the penalized objective
I(W;X,Y) + lam * I(X;Y|W) over conditional kernels P(w | x, y) by
multi-start exponentiated-gradient descent with restarted momentum, with the
penalty weight ramped over the fixed schedule (1, 10, 100); it reads the
table rounded to 40 mantissa bits.  Each descent result is then factored
into a latent-class model, polished by EM with SQUAREM steps until it
stalls, and repaired into an auxiliary W' with X ⊥ Y | W' exactly and the
(x, y) marginal exactly P (see `_wyner_certify`), so its I(W';X,Y) bounds
the Wyner value from above.  The
starts are independent runs, so they advance in lockstep as one batch: each
array operation of a descent round serves every start at once, and each
start's result is the one it gives when run alone.  Results are
deterministic given (seed, restarts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _grouping
from ._grouping import label_components
from .dist import (
    MAX_SOLVER_ENTRIES,
    ConditionalKernel,
    DeterministicMap,
    InfoValue,
    JointDistribution,
    _multistart,
    _squarem,
    conditional_mutual_information,
    entropy,
    info_from_nats,
    logsumexp,
    marginals,
    rel_entr,
)
from .errors import DimensionError, NumericalError

#: penalty weight schedule for the Wyner solver
PENALTY_SCHEDULE = (1.0, 10.0, 100.0)
#: accepted descent steps allowed per penalty stage of one Wyner start
MAX_ITERS = 1000
#: accepted steps a Wyner start takes in a stage before its trials carry
#: momentum (see `_wyner_stage`)
MOMENTUM_WAIT = 50
#: kernel entries are floored at this to keep logarithms finite
KERNEL_FLOOR = 1e-16
#: smallest positive cell the Wyner solver takes (about 2.2e-292): below
#: it, a cell times the kernel floor leaves the normal float range
MIN_WYNER_CELL = np.finfo(float).tiny / KERNEL_FLOOR
#: kernel entries below this are cut to zero before the Wyner certificate
SUPPORT_CUT = 1e-10
#: most EM steps that polish the latent-class model of the Wyner
#: certificate, three per SQUAREM iteration; the polish stops earlier once
#: it stalls (see `_wyner_certify`)
POLISH_STEPS = 200


@dataclass(frozen=True)
class GkResult:
    """Deterministic common part of a joint pmf.

    ``common_map_x`` and ``common_map_y`` land in one shared alphabet and
    agree almost surely: every support cell (x, y) has
    ``common_map_x(x) == common_map_y(y)``.  The alphabet holds the
    ``component_count`` components of the support graph, and ``k`` is
    ``component_count - 1``, the number of unit singular values of the
    dependence spectrum.
    """

    value: InfoValue
    k: int
    common_map_x: DeterministicMap
    common_map_y: DeterministicMap
    component_count: int


def gacs_korner(j: JointDistribution, unit: str = "bits") -> GkResult:
    """Deterministic common part from the bipartite support graph.

    Connects x and y symbols whenever P(x, y) > 0; the connected components
    are exactly the common symbols (Gacs and Korner 1973), so the common
    maps agree on every support cell and the value is the entropy of the
    component label.  Exact: it needs no tolerance and no spectrum.
    """
    xs, ys = np.nonzero(j.p > 0.0)
    labels = label_components(j.nx + j.ny, xs, j.nx + ys)
    labels_x = labels[:j.nx]
    labels_y = labels[j.nx:]
    n_classes = int(labels.max()) + 1
    px, _ = marginals(j)
    return GkResult(
        value=entropy(np.bincount(labels_x, px, n_classes), unit),
        k=n_classes - 1,
        common_map_x=DeterministicMap(labels_x, n_classes),
        common_map_y=DeterministicMap(labels_y, n_classes),
        component_count=n_classes,
    )


# The benchmark traces GK under the name `gk_via_components`, and its own
# tests read `group_rows` here; both bindings live until the benchmark is
# retargeted (ROADMAP item 4).
gk_via_components = gacs_korner
group_rows = _grouping.group_rows


@dataclass(frozen=True)
class WynerResult:
    """A certified upper bound on the Wyner common information.

    ``kernel`` holds P(w | x, y) of an auxiliary that achieves ``value``,
    with rows indexed by the flattened (x, y) cell in row-major order; it
    makes X and Y conditionally independent, and ``markov_residual`` is its
    I(X;Y|W), zero up to rounding.  ``card_w`` is the auxiliary alphabet of
    the descent; the kernel has ``card_w + min(nx, ny)`` columns, at least
    ``max(nx, ny)`` (see `wyner_solve`).  ``converged`` is False when a
    descent stage of the winning start stopped at ``MAX_ITERS`` accepted
    steps; ``value`` is a valid bound either way.
    """

    value: InfoValue
    card_w: int
    kernel: ConditionalKernel
    markov_residual: InfoValue
    restarts_used: int
    converged: bool


def _wyner_matrices(p, lam):
    """The fixed matrices of one penalty stage on the table ``p`` (nx, ny).

    Kernels are flattened to ``(..., nx * ny, card)``, cells in row-major
    order.  ``marg`` is the ``(nx + ny + 1, nx * ny)`` incidence of each x,
    each y and the whole table, weighted by P(x, y): ``marg @ q`` stacks
    P(x, w), P(y, w) and P(w) of the kernels ``q``.  ``expand`` is the
    transposed incidence with the gradient's signs, ``-lam`` on the x and
    y rows and ``lam - 1`` on the w row, and ``scale`` is the column
    ``lam + 1``; both are zero on cells off the support.  None of them
    grows with ``card``.
    """
    nx, ny = p.shape
    cells = p.reshape(-1, 1)
    inc = np.vstack([np.repeat(np.eye(nx), ny, axis=1),
                     np.tile(np.eye(ny), nx), np.ones((1, nx * ny))])
    on = cells > 0.0
    signs = np.append(np.full(nx + ny, -lam), lam - 1.0)
    return inc * cells.T, inc.T * signs * on, (lam + 1.0) * on


def _wyner_eval(q, marg, h_xy):
    """Objective parts (nats) of a stack of kernels, from its marginal sums.

    ``q`` holds flattened kernels P(w | x, y) shaped ``(..., nx * ny,
    card)``, ``marg`` is the weighted incidence of `_wyner_matrices` and
    ``h_xy`` is the sum of ``P(x, y) log P(x, y)`` over the support.  One
    product by ``marg`` gives P(x, w), P(y, w) and P(w) of every start, and
    one log covers them all.  The kernel is floored at ``KERNEL_FLOOR`` and
    every positive cell is at least ``MIN_WYNER_CELL`` (`wyner_solve`
    checks it), so every product here is a normal float, every log is
    finite and a cell off the support adds nothing to either sum.  Returns
    (I(W;XY), I(X;Y|W), logs), the two values shaped like the leading axes
    of ``q``; ``logs`` holds log q and the logs of the stacked marginals,
    for `_wyner_grad`.
    """
    lnq = np.log(q)
    m = marg @ q
    ln_m = np.log(m)
    s_q = np.vecdot(np.vecdot(q, lnq), marg[-1])
    s_m = np.vecdot(m, ln_m)
    s_w = s_m[..., -1]
    value = s_q - s_w
    resid = h_xy + s_q + s_w - np.add.reduce(s_m[..., :-1], axis=-1)
    return value, resid, (lnq, ln_m)


def _wyner_grad(logs, expand, scale):
    """Row-scaled gradient of I(W;XY) + lam * I(X;Y|W) from `_wyner_eval` logs.

    ``expand`` and ``scale`` come from `_wyner_matrices` at the stage's
    weight lam: one product spreads the logs of P(x, w), P(y, w) and P(w)
    back over the cells, and ``(lam + 1) log q`` is added.  The gradient is
    that of the objective as `_wyner_eval` computes it, with ``h_xy`` held
    fixed; on stochastic kernels it differs from the gradient of the full
    expression by a constant per row, which the row-normalized update
    ignores.  Rows of zero-probability cells get a zero gradient since their
    kernel entries are irrelevant.
    """
    lnq, ln_m = logs
    g = expand @ ln_m
    g += scale * lnq
    return g


def _renormalize(q):
    q = np.maximum(q, KERNEL_FLOOR)
    q /= np.add.reduce(q, axis=-1, keepdims=True)
    return q


def _wyner_stage(q, p, lam):
    """Exponentiated-gradient descent at one fixed penalty weight.

    ``q`` is a stack ``(starts, nx * ny, card)`` of flattened kernels for
    the table ``p`` that advance in lockstep: each round makes one trial
    step per live start, and one `_wyner_eval` call evaluates all of them.
    The matrices of `_wyner_matrices` are built once, and every product by
    them is taken start by start, so a start's arithmetic does not depend
    on the others.  Steps are accepted only when the objective does not
    increase, so each start is a descent run.

    A trial is ``log q - eta * grad + mu * (log q - log q_prev)``,
    normalized per row, where ``q_prev`` is the kernel before the last
    accepted step (Nesterov momentum in the mirror domain).  With ``k`` the
    accepted steps since the start's last rejection, ``mu`` is
    ``(k - 1) / (k + 2)`` once the start has taken ``MOMENTUM_WAIT``
    accepted steps in this stage, and 0 before (momentum from the first
    step leads some starts into worse basins).  A rejection sets ``k`` to 0:
    after a trial with momentum this is a restart (O'Donoghue and Candes
    2015) and the step size is kept; after a plain trial the step size
    halves.  A plain accepted step grows it by 1.5, up to 20.

    A start ends when an accepted step moves its kernel by at most 1e-8 in
    sup norm (1e-10 at the last weight of ``PENALTY_SCHEDULE``), when its
    objective stops improving for a few consecutive steps, when its step
    size falls below 1e-13, or after ``MAX_ITERS`` accepted steps; it then
    leaves the later rounds.  Each start keeps its own step size, momentum
    and counts, so it takes the steps it takes when run alone.  The
    gradient is built only at accepted points.  Returns the final stack and
    each start's number of accepted steps.
    """
    # ``q`` starts as ``out`` itself: until the first start ends, every row
    # is live and is written again when its start ends.
    q = out = np.array(q, dtype=float)
    starts = len(q)
    steps = np.zeros(starts, dtype=int)
    marg, expand, scale = _wyner_matrices(p, lam)
    h_xy = float(rel_entr(p, 1.0).sum())
    live = list(range(starts))
    value, resid, logs = _wyner_eval(q, marg, h_xy)
    f = (value + lam * resid).tolist()
    lnq = logs[0]
    g = _wyner_grad(logs, expand, scale)
    # log q minus log q before the last accepted step, per start
    d = np.zeros_like(q)
    step_tol = 1e-10 if lam == PENALTY_SCHEDULE[-1] else 1e-8
    eta, stalled, iters = [0.5] * starts, [0] * starts, [0] * starts
    streak = [0] * starts
    while live:
        mu = [(k - 1) / (k + 2) if k and n >= MOMENTUM_WAIT else 0.0
              for k, n in zip(streak, iters)]
        t = np.array(eta)[:, None, None] * g
        np.subtract(lnq, t, out=t)
        if any(mu):
            # d is read by this trial only: an accepted step replaces it and
            # a rejected one restarts the momentum, so it is scaled in place
            d *= np.array(mu)[:, None, None]
            t += d
        t -= logsumexp(t)
        qn = _renormalize(np.exp(t, out=t))
        value, resid, logs = _wyner_eval(qn, marg, h_xy)
        f_new = (value + lam * resid).tolist()
        ok = [a <= b + 1e-12 for a, b in zip(f_new, f)]
        acc = [i for i, accepted in enumerate(ok) if accepted]
        if acc:
            np.abs(np.subtract(qn, q, out=t), out=t)
            delta = np.maximum.reduce(t, axis=(-2, -1)).tolist()
        # the trial buffer is done with: freed before a gradient is built
        del t
        keep, ended = [], []
        for i, accepted in enumerate(ok):
            if accepted:
                gain = f[i] - f_new[i]
                f[i] = f_new[i]
                if not mu[i]:
                    eta[i] = min(eta[i] * 1.5, 20.0)
                streak[i] += 1
                iters[i] += 1
                stalled[i] = (stalled[i] + 1
                              if gain <= 1e-13 * (1.0 + abs(f[i])) else 0)
                stop = (delta[i] <= step_tol or stalled[i] >= 3
                        or iters[i] >= MAX_ITERS)
            else:
                streak[i] = 0
                if not mu[i]:
                    eta[i] *= 0.5
                stop = eta[i] < 1e-13
            (ended if stop else keep).append(i)
        if len(acc) == len(live):
            np.subtract(logs[0], lnq, out=d)
            q, lnq = qn, logs[0]
            g = _wyner_grad(logs, expand, scale)
        elif acc:
            mask = np.array(ok)[:, None, None]
            np.subtract(logs[0], lnq, out=d, where=mask)
            np.copyto(q, qn, where=mask)
            np.copyto(lnq, logs[0], where=mask)
            g[acc] = _wyner_grad(tuple(a.take(acc, axis=0) for a in logs),
                                 expand, scale)
        if ended:
            out[[live[i] for i in ended]] = q[ended]
            steps[[live[i] for i in ended]] = [iters[i] for i in ended]
            # one at a time, so that fewer partial stacks are alive at once
            q = q[keep]
            lnq = lnq[keep]
            g = g[keep]
            d = d[keep]
            live, f, eta, stalled, iters, streak = (
                [s[i] for i in keep]
                for s in (live, f, eta, stalled, iters, streak))
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


def _wyner_certify(q, p, table, width):
    """Exactly feasible auxiliaries built from a stack of kernels.

    ``q`` is a stack ``(starts, nx, ny, card)`` of kernels P(w | x, y) for
    the table ``p``, and ``table`` is the table the descent read (``p``
    rounded, with the same zero cells).  For each start, in one batch:

    * factor: entries below ``SUPPORT_CUT`` are cut (the floor puts mass on
      every cell, so without the cut every atom below would start out on
      the zero cells of the table), then P(x, w) and B(y|w) are formed;
    * entry cut: an atom w that still puts mass on a cell with
      P(x, y) = 0 loses there the smaller of its two conditional entries,
      P(x|w) or B(y|w) (on a tie, that of the smaller alphabet, or of X
      when both are equal), and each cut B(.|w) is renormalized, so that
      the scale below is not 0.  The rest of the atom stays.  A start with
      no such atom keeps its factors untouched;
    * polish: EM on the latent-class model P~(x, y) = sum_w P(x, w) B(y|w),
      which lowers the generalized KL(P || P~) and keeps zero entries
      (KL-NMF), so no atom reaches a zero cell again.  Each iteration makes
      two EM steps and one SQUAREM extrapolation of the three points in the
      logs of P(x, w) and B(y|w) (`dist._squarem`, one step length per
      start), and keeps the EM step from the extrapolated point only when
      its KL is at most that of the second step.  A start stops when an
      iteration lowers its KL by at most 1e-15 * (1 + KL), or before its EM
      steps would pass ``POLISH_STEPS``;
    * repair: with s = min(1, min of P / P~ over P~ > 0), W' holds the
      atoms s * P(x, w) B(y|w), under which X and Y are independent, and
      one symbol per x carrying the leftover P(x, y) - s * P~(x, y), on
      which X is constant.  So X ⊥ Y | W' holds exactly and P(x, y) is
      kept.  When Y has fewer symbols, the leftover is grouped per y
      instead.

    The factor, the cut and the polish read ``table``, so that tables equal
    up to rounding take the same path; the repair and the value read ``p``.
    Returns the kernels of the W', shaped ``(starts, nx, ny, width)`` with
    the atoms in the first ``card`` columns and the leftover of x in column
    ``card + x`` (a zero-probability cell puts its whole row there), and
    their I(W';X,Y) in nats.
    """
    if p.shape[1] < p.shape[0]:
        k, values = _wyner_certify(q.swapaxes(1, 2), p.T, table.T, width)
        return k.swapaxes(1, 2), values
    starts, nx, ny, card = q.shape
    q = np.where(q < SUPPORT_CUT, 0.0, q)
    a = (table[:, None, :] @ q)[:, :, 0, :]                   # P(x, w)
    b = (table.T[:, None, :] @ q.swapaxes(1, 2))[:, :, 0, :]  # P(y, w)
    del q

    def per_symbol(joint):
        pw = joint.sum(axis=1, keepdims=True)
        return np.divide(joint, pw, out=np.zeros_like(joint), where=pw > 0.0)

    on = p > 0.0
    B = per_symbol(b)
    # P(x, w) and P(y|w) of every atom at every zero cell
    zx, zy = np.nonzero(~on)
    ax, by = a[:, zx, :], B[:, zy, :]
    cover = (ax > 0.0) & (by > 0.0)
    cut_x = cover & (ax <= a.sum(axis=1)[:, None, :] * by)
    s, c, w = np.nonzero(cut_x)
    a[s, zx[c], w] = 0.0
    s, c, w = np.nonzero(cover & ~cut_x)
    B[s, zy[c], w] = 0.0
    leaky = cover.any(axis=(1, 2))
    B[leaky] = per_symbol(B[leaky])

    def em(a, B):
        pt = a @ B.swapaxes(1, 2)
        r = np.divide(table, pt, out=np.zeros_like(pt), where=on & (pt > 0.0))
        return a * (r @ B), per_symbol(B * (r.swapaxes(1, 2) @ a))

    def divergence(a, B):
        # generalized KL(table || P~) over the cells P~ covers; a cell it
        # does not cover stays uncovered, so leaving it out is a constant
        pt = a @ B.swapaxes(1, 2)
        terms = rel_entr(table, pt) - table + pt
        return np.add.reduce(np.where(pt > 0.0, terms, 0.0), axis=(1, 2))

    def logs(a, B):
        with np.errstate(divide="ignore"):
            return np.concatenate([np.log(a).reshape(len(a), -1),
                                   np.log(B).reshape(len(B), -1)], axis=1)

    live, la, lb = np.arange(starts), a, B
    kl = divergence(a, B)
    for _ in range(POLISH_STEPS // 3):
        a1, b1 = em(la, lb)
        a2, b2 = em(a1, b1)
        x = _squarem(logs(la, lb), logs(a1, b1), logs(a2, b2))
        # EM does not depend on the scale of either factor, so one shift
        # per start keeps the exponential finite
        x = np.exp(x - np.maximum.reduce(x, axis=1, keepdims=True))
        a3, b3 = em(x[:, :nx * card].reshape(a2.shape),
                    per_symbol(x[:, nx * card:].reshape(b2.shape)))
        kl2, kl3 = divergence(a2, b2), divergence(a3, b3)
        take = kl3 <= kl2
        la = np.where(take[:, None, None], a3, a2)
        lb = np.where(take[:, None, None], b3, b2)
        a[live], B[live] = la, lb
        new = np.where(take, kl3, kl2)
        go = kl - new > 1e-15 * (1.0 + new)
        live, la, lb, kl = live[go], la[go], lb[go], new[go]
        if not len(live):
            break
    pt = a @ B.swapaxes(1, 2)
    ratio = np.divide(p, pt, out=np.full_like(pt, np.inf), where=pt > 0.0)
    scale = np.minimum(ratio.min(axis=(1, 2)), 1.0)[:, None, None]
    k = np.zeros((starts, nx, ny, width))
    k[..., :card] = (scale * a)[:, :, None, :] * B[:, None, :, :]
    xs = np.arange(nx)
    k[:, xs, :, card + xs] = np.maximum(p - scale * pt, 0.0).swapaxes(0, 1)
    np.divide(k, p[..., None], out=k, where=on[..., None])
    k[:, zx, zy, card + zx] = 1.0
    pj = p[..., None] * k
    pw = pj.sum(axis=(1, 2))[:, None, None, :]
    return k, rel_entr(pj, p[..., None] * pw).sum(axis=(1, 2, 3))


def wyner_solve(j: JointDistribution, card_w: int | None = None,
                restarts: int = 10, seed: int = 0,
                unit: str = "bits") -> WynerResult:
    """Certified upper bound on the Wyner common information.

    Runs the penalty-schedule descent (weights ``PENALTY_SCHEDULE``, each
    stage at most ``MAX_ITERS`` accepted steps, read at call time, with the
    momentum and stop rules of `_wyner_stage`) on kernels with ``card_w``
    auxiliary symbols, from two deterministic starts (W a copy of X and W a
    copy of Y, when ``card_w`` is large enough) plus ``restarts`` seeded
    Dirichlet(1) random kernels.  Each final kernel is then repaired into
    an auxiliary W' that makes X and Y exactly conditionally independent
    and keeps P(x, y) exactly (see `_wyner_certify`), so I(W';X,Y) is at
    least the Wyner value.  Since W = X and W = Y are feasible too, a
    start's certified value is ``min(I(W';X,Y), H(X), H(Y))``.  The
    smallest certified value wins, ties broken by start index.  The descent
    and the certificate's polish read ``j.p`` rounded to 40 mantissa bits,
    so that tables equal up to summation rounding, such as a table and the
    reduction of one of its refinements, take the same path; the
    certificate's repair reads ``j.p`` itself, so ``value`` is exact for
    the input.

    The returned kernel achieves ``value``.  Its first ``card_w`` columns
    are the descent's symbols and the next ``min(nx, ny)`` hold the repair's
    leftover, one symbol per symbol of the smaller alphabet; it has at least
    ``max(nx, ny)`` columns, so that the copies of X and of Y fit.
    ``converged`` is False when a stage of the winning start stopped at
    ``MAX_ITERS`` accepted steps; the value is a valid bound either way.

    The starts run in lockstep as one batch (see `_wyner_stage`), in stacks
    whose certified kernels hold at most ``MAX_SOLVER_ENTRIES`` entries,
    under the multi-start policy the bottleneck solver shares
    (`dist._multistart`); each start's result is the one it gives when run
    alone.

    Raises `ValueError` for a negative ``restarts``.  Raises
    `DimensionError` before allocating when there is no start (``card_w``
    below both ``nx`` and ``ny`` and no restarts) or when the returned
    kernel would hold more than ``MAX_SOLVER_ENTRIES`` entries
    (``nx * ny`` times its column count).  Raises `NumericalError` when a
    positive cell of ``j``, so rounded, is below ``MIN_WYNER_CELL`` (about
    2.2e-292).
    """
    nx, ny = j.nx, j.ny
    card = int(card_w) if card_w is not None else nx * ny
    restarts = int(restarts)
    if card < 1:
        raise DimensionError("card_w must be at least 1")
    if restarts < 0:
        raise ValueError("restarts must be non-negative")
    width = max(card + min(nx, ny), nx, ny)
    if nx * ny * width > MAX_SOLVER_ENTRIES:
        raise DimensionError(
            f"Wyner kernel of {nx}x{ny} cells by {width} auxiliary symbols "
            f"({card} from card_w, the rest for the certificate) exceeds "
            f"{MAX_SOLVER_ENTRIES} entries; lower card_w (--wyner-card) or "
            f"reduce the input")
    kinds = (["x"] * (card >= nx) + ["y"] * (card >= ny)
             + ["dirichlet"] * restarts)
    if not kinds:
        raise DimensionError(
            f"Wyner solver has no start: card_w {card} is below both "
            f"alphabet sizes ({nx}x{ny}), so W cannot copy X or Y, and "
            f"restarts is 0; raise card_w (--wyner-card) or restarts "
            f"(--restarts)")
    mant, expo = np.frexp(j.p)
    p = np.ldexp(np.round(mant * 2.0**40) / 2.0**40, expo)
    low = p[p > 0.0].min()
    if low < MIN_WYNER_CELL:
        raise NumericalError(
            f"Wyner solver needs every positive cell at least "
            f"{MIN_WYNER_CELL:.3g}; the input has one of {low:.3g}")
    rng = np.random.default_rng(seed)
    px, py = marginals(j)
    cap = min((entropy(px, "nats").value, "x"),
              (entropy(py, "nats").value, "y"))

    def run(idxs):
        q = _renormalize(np.stack(
            [_start_kernel(kinds[i], nx, ny, card, rng) for i in idxs]
        ).reshape(len(idxs), nx * ny, card))
        # Per-run generators for the stage-transition jitter below; keyed by
        # (seed, index) so runs stay reproducible individually.
        run_rngs = [np.random.default_rng((seed, i)) for i in idxs]
        capped = np.zeros(len(idxs), dtype=bool)
        for stage, lam in enumerate(PENALTY_SCHEDULE):
            if stage:
                # Constant-W kernels are exact fixed points of the row-wise
                # multiplicative update (the penalty gradient is constant
                # across each row there), yet they stop being optimal once
                # the penalty weight grows.  A small seeded jitter at each
                # weight change breaks that symmetry so the descent can
                # leave the degenerate point; the stage re-converges anyway.
                q = _jitter(q, run_rngs)
            q, steps = _wyner_stage(q, p, lam)
            capped |= steps >= MAX_ITERS
        kernels, values = _wyner_certify(q.reshape(-1, nx, ny, card), j.p,
                                         p, width)
        for k, value in enumerate(values.tolist()):
            kernel = (kernels[k].copy() if value <= cap[0]
                      else _start_kernel(cap[1], nx, ny, width, None))
            yield min(value, cap[0]), (kernel, bool(capped[k]))

    ((value, (kernel, capped)),) = _multistart(
        [0] * len(kinds), nx * ny * width, run).values()
    resid = conditional_mutual_information(j.p[:, :, None] * kernel, unit)
    return WynerResult(
        value=info_from_nats(value, unit),
        card_w=card,
        kernel=ConditionalKernel(kernel.reshape(nx * ny, width)),
        markov_residual=resid,
        restarts_used=len(kinds),
        converged=not capped,
    )
