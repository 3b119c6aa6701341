"""Finite-alphabet probability arithmetic.

Dense joint distributions, conditional kernels, deterministic symbol maps,
and the Shannon quantities computed from them.  Everything in this module
is exact up to floating point: no sampling, no estimation.

Conventions:

* information sums are accumulated in nats internally and converted at the
  boundary; :class:`InfoValue` carries its unit ("bits" by default);
* terms with zero probability contribute nothing to any sum, matching the
  continuity limit ``0 * log(0) = 0``.  :func:`rel_entr` owns this rule
  for every ``sum a * log(a / b)`` in the package, with two exceptions:
  the Wyner objective, whose floored kernel keeps every log finite, and
  the ``kl`` and ``reverse-kl`` f-information generators of
  :mod:`infosep.finfo`, which sum ``u * log(u)`` and ``-log(u)`` of the
  density ratio ``u`` through ``FGenerator.fn``;
* a :class:`JointDistribution` always has strictly positive marginals.
  Raw nonnegative weight matrices (counts, unnormalized tables, tables
  with dead symbols) enter through :func:`validate_and_trim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidDistribution,
    InvalidMap,
    NumericalError,
)

LN2 = math.log(2.0)

#: total input mass may deviate from 1 by this much before construction refuses
MASS_TOL = 1e-9
#: stochastic rows must sum to 1 within this tolerance
ROW_TOL = 1e-12
#: information values in [-NEG_TOL, 0) are clamped to zero
NEG_TOL = 1e-12
#: the solvers refuse work arrays with more float64 entries than this (32 MiB)
MAX_SOLVER_ENTRIES = 2**22

_UNITS = ("bits", "nats")


def _multistart(groups, entries, run):
    """Best start of each group, with the starts run in bounded stacks.

    ``groups[i]`` names the group of start ``i``, and ``entries`` is the
    size of one start's work array.  The starts go to ``run`` in order, as
    index ranges of at most ``MAX_SOLVER_ENTRIES // entries`` starts (at
    least one); ``run(idxs)`` advances them as one stack and yields a
    ``(key, result)`` pair per start.  Returns a dict from each group to the
    pair of its first start with the smallest key.
    """
    size = max(1, MAX_SOLVER_ENTRIES // entries)
    best = {}
    for lo in range(0, len(groups), size):
        for i, (key, result) in enumerate(
                run(range(lo, min(lo + size, len(groups)))), lo):
            if groups[i] not in best or key < best[groups[i]][0]:
                best[groups[i]] = key, result
    return best


def _squarem(ln0, ln1, ln2):
    """One SQUAREM extrapolation in the log domain, one step length per run.

    ``ln0``, ``ln1`` and ``ln2`` stack ``(runs, ...)`` the logs of a point
    x, of M(x) and of M(M(x)) for a fixed-point map M.  Over the entries
    finite in all three, with r = ln1 - ln0 and v = ln2 - 2 ln1 + ln0, each
    run takes alpha = min(-|r| / |v|, -1) (scheme S3 of Varadhan and Roland
    2008) and the point ln0 - 2 alpha r + alpha^2 v, written as
    ln2 + (alpha + 1) ((alpha - 1) v - 2 r) so that alpha = -1 gives ln2
    exactly.  An entry that is -inf in any of the three keeps its value in
    ``ln2``, and so does every entry of a run whose step overflows (logs
    beyond about 1e154 in size).  Returns the new logs, not normalized;
    every operation acts on each run alone.
    """
    fin = np.isfinite(ln0) & np.isfinite(ln1) & np.isfinite(ln2)
    r = np.subtract(ln1, ln0, out=np.zeros_like(ln0), where=fin)
    v = np.subtract(ln2, ln1, out=np.zeros_like(ln0), where=fin)
    v -= r
    axes = tuple(range(1, r.ndim))
    with np.errstate(over="ignore", invalid="ignore"):
        rr = np.add.reduce(r * r, axis=axes)
        vv = np.add.reduce(v * v, axis=axes)
        alpha = -np.sqrt(np.divide(rr, vv, out=np.ones_like(rr),
                                   where=vv > 0.0))
        alpha = np.minimum(alpha, -1.0).reshape((-1,) + (1,) * len(axes))
        v *= alpha - 1.0
        v -= 2.0 * r
        v *= alpha + 1.0
        v += ln2
    ok = np.logical_and.reduce(np.isfinite(v) | ~fin, axis=axes,
                               keepdims=True)
    return np.where(fin & ok, v, ln2)


def _check_unit(unit):
    if unit not in _UNITS:
        raise ValueError(f"unknown unit {unit!r}; expected one of {_UNITS}")


@dataclass(frozen=True)
class InfoValue:
    """A scalar information quantity tagged with its unit."""

    value: float
    unit: str = "bits"

    def __post_init__(self):
        _check_unit(self.unit)
        object.__setattr__(self, "value", float(self.value))

    def to(self, unit: str) -> "InfoValue":
        _check_unit(unit)
        if unit == self.unit:
            return self
        factor = 1.0 / LN2 if unit == "bits" else LN2
        return InfoValue(self.value * factor, unit)

    def __float__(self) -> float:
        return self.value


def info_from_nats(nats: float, unit: str = "bits") -> InfoValue:
    """Wrap a value accumulated in nats, clamping float-noise negatives.

    Values in ``[-NEG_TOL, 0)`` are floating-point zeros and become 0;
    anything more negative indicates a genuine inconsistency and raises
    :class:`NumericalError`.  ``+inf`` passes through unchanged.
    """
    _check_unit(unit)
    nats = float(nats)
    if nats < 0.0:
        if nats < -NEG_TOL:
            raise NumericalError(f"information value {nats:g} below -{NEG_TOL:g}")
        nats = 0.0
    return InfoValue(nats if unit == "nats" else nats / LN2, unit)


def _as_float_array(raw, name, ndim):
    """``raw`` as a nonempty, finite, nonnegative float array with ``ndim``
    axes."""
    arr = np.asarray(raw, dtype=float)
    if arr.size == 0:
        raise InvalidDistribution(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidDistribution(f"{name} contains negative entries")
    if arr.ndim != ndim:
        raise InvalidDistribution(f"{name} must have {ndim} axes, not {arr.ndim}")
    return arr


def _pmf(raw, name, ndim, hint=""):
    """``raw`` checked by `_as_float_array` and divided by its total, which
    must be within ``MASS_TOL`` of 1; ``hint`` ends the error message."""
    arr = _as_float_array(raw, name, ndim)
    total = arr.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise InvalidDistribution(
            f"{name} mass {total!r} not within {MASS_TOL:g} of 1{hint}")
    return arr / total


@dataclass(frozen=True)
class JointDistribution:
    """A dense joint pmf over two finite alphabets.

    The matrix is renormalized on construction, but its total mass must
    already be within ``MASS_TOL`` of 1 and both marginals must be strictly
    positive; arbitrary nonnegative matrices go through
    :func:`validate_and_trim` instead.
    """

    p: np.ndarray
    x_labels: tuple | None = None
    y_labels: tuple | None = None

    def __post_init__(self):
        arr = _pmf(self.p, "joint matrix", 2,
                   " (use validate_and_trim for raw weight matrices)")
        if np.any(arr.sum(axis=1) <= 0.0) or np.any(arr.sum(axis=0) <= 0.0):
            raise InvalidDistribution(
                "zero-mass symbol present (use validate_and_trim to remove it)")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)
        for attr, n in (("x_labels", arr.shape[0]), ("y_labels", arr.shape[1])):
            labels = getattr(self, attr)
            if labels is not None:
                labels = tuple(str(s) for s in labels)
                if len(labels) != n:
                    raise DimensionError(
                        f"{attr} has {len(labels)} entries for {n} symbols")
                object.__setattr__(self, attr, labels)

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[1]


def validate_and_trim(raw, x_labels=None, y_labels=None) -> JointDistribution:
    """Normalize a nonnegative weight matrix and drop zero-mass symbols.

    Accepts any nonempty matrix with nonnegative finite entries and positive
    total (probabilities, counts, unnormalized weights).  Rows and columns
    whose sum is exactly zero are removed; label sequences, when given, are
    trimmed alongside.  A matrix whose total overflows a float is divided
    by its largest entry first; an entry too small to keep against that
    one becomes zero.
    """
    arr = _as_float_array(raw, "weight matrix", 2)
    with np.errstate(over="ignore"):
        total = arr.sum()
    if total == math.inf:
        arr = arr / arr.max()
        total = arr.sum()
    if total <= 0.0:
        raise InvalidDistribution("weight matrix has zero total mass")
    arr = arr / total
    keep_x = arr.sum(axis=1) > 0.0
    keep_y = arr.sum(axis=0) > 0.0
    arr = arr[np.ix_(keep_x, keep_y)]
    if x_labels is not None:
        x_labels = tuple(lab for lab, k in zip(x_labels, keep_x) if k)
    if y_labels is not None:
        y_labels = tuple(lab for lab, k in zip(y_labels, keep_y) if k)
    return JointDistribution(arr, x_labels=x_labels, y_labels=y_labels)


def marginals(j: JointDistribution):
    """Return the pair of marginal pmf vectors ``(p_x, p_y)``."""
    return j.p.sum(axis=1), j.p.sum(axis=0)


@dataclass(frozen=True)
class ConditionalKernel:
    """A row-stochastic matrix: ``k[i, j] = P(col j | row i)``."""

    k: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.k, "kernel", 2)
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise InvalidDistribution(
                f"kernel rows must sum to 1 within {ROW_TOL:g} (worst {worst:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)

    @property
    def rows(self) -> int:
        return self.k.shape[0]


def conditional_kernel(j: JointDistribution, direction: str = "y|x") -> ConditionalKernel:
    """Conditional pmf table of one coordinate given the other.

    ``direction="y|x"`` returns rows indexed by x (``k[x, y] = P(y|x)``);
    ``direction="x|y"`` returns rows indexed by y.
    """
    px, py = marginals(j)
    if direction == "y|x":
        return ConditionalKernel(j.p / px[:, None])
    if direction == "x|y":
        return ConditionalKernel(j.p.T / py[:, None])
    raise ValueError(f"unknown direction {direction!r}; expected 'y|x' or 'x|y'")


@dataclass(frozen=True)
class DeterministicMap:
    """A surjective map from ``[0, domain_size)`` onto ``[0, image_size)``."""

    assignment: np.ndarray
    image_size: int | None = None

    def __post_init__(self):
        raw = self.assignment
        arr = np.asarray(raw)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidMap("assignment must be a nonempty 1-d integer array")
        # numpy reads [0, True] as integers, so a list is checked entry-wise
        if arr.dtype == bool or (not isinstance(raw, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in raw)):
            raise InvalidMap("assignment entries must be integers, not booleans")
        if not np.issubdtype(arr.dtype, np.integer):
            # checked before the cast, which warns on these
            if not np.all(np.isfinite(arr) & (np.abs(arr) < 2.0**63)
                          & (arr == np.floor(arr))):
                raise InvalidMap("assignment entries must be finite integers")
        arr = arr.astype(np.int64)
        size = self.image_size
        if size is None:
            size = int(arr.max()) + 1
        size = int(size)
        if arr.min() < 0 or arr.max() >= size:
            raise InvalidMap(f"assignment values must lie in [0, {size})")
        if np.unique(arr).size != size:
            raise InvalidMap("assignment is not surjective onto its image")
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)
        object.__setattr__(self, "image_size", size)

    @property
    def domain_size(self) -> int:
        return self.assignment.shape[0]

    @classmethod
    def identity(cls, n: int) -> "DeterministicMap":
        return cls(np.arange(n), n)

    @classmethod
    def constant(cls, n: int) -> "DeterministicMap":
        return cls(np.zeros(n, dtype=np.int64), 1)


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise ``log(sum(exp(a)))`` along the last axis, kept as an axis.

    A row is a slice along the last axis, so a stack of matrices is handled
    like one matrix, row by row.  Each row is shifted by its maximum before
    exponentiating; a row that is all ``-inf`` gives ``-inf``.  Same values
    as SciPy's ``logsumexp(a, axis=-1, keepdims=True)`` without its
    per-call dispatch cost, which dominates on the solvers' small matrices;
    the reductions call the ufuncs directly for the same reason.  The shift
    and the exponential share one temporary the size of ``a``.
    """
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    if np.logical_and.reduce(np.isfinite(m), axis=None):
        # every row has a finite entry: no fix-up
        e = np.subtract(a, m)
        return np.log(np.add.reduce(np.exp(e, out=e), axis=-1,
                                    keepdims=True)) + m
    m[~np.isfinite(m)] = 0.0
    e = np.subtract(a, m)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(np.exp(e, out=e), axis=-1,
                                    keepdims=True)) + m


def rel_entr(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``a * log(a / b)`` in nats, broadcasting ``a`` against ``b``.

    For nonnegative inputs: a term with ``a == 0`` is 0 and a term with
    ``a > 0 == b`` is ``+inf``, as in SciPy's ``rel_entr``.  The ratio is
    taken first, so every term is one divide, one log and one multiply.
    Where ``a / b`` overflows (``b`` below the normal float range) the call
    takes ``a * (log a - log b)`` instead, which stays finite; the float
    error state tells that case apart at no cost to the others.  The
    package does not import SciPy: importing `scipy.special` would about
    double the time ``import infosep.cli`` takes and add two thirds to its
    memory.
    """
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="raise"):
            return np.where(a > 0.0, a * np.log(a / b), 0.0)
    except FloatingPointError:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = a / b
            terms = np.where(np.isinf(ratio) & (b > 0.0),
                             a * (np.log(a) - np.log(b)), a * np.log(ratio))
        return np.where(a > 0.0, terms, 0.0)


def entropy(dist, unit: str = "bits") -> InfoValue:
    """Shannon entropy of a pmf vector (any shape; flattened)."""
    q = _pmf(np.ravel(dist), "distribution", 1)
    # 0.0 - x, not -x: a point mass has entropy +0.0, never -0.0
    return info_from_nats(0.0 - float(rel_entr(q, 1.0).sum()), unit)


def mutual_information(j: JointDistribution, unit: str = "bits") -> InfoValue:
    """Mutual information between the two coordinates of a joint pmf.

    Computed as the average under P(x) of ``KL(P(Y|x) || P(Y))``: no product
    of marginals is formed, so none can underflow to zero and make the
    value infinite.
    """
    px, py = marginals(j)
    kl = rel_entr(j.p / px[:, None], py).sum(axis=1)
    return info_from_nats(float((px * kl).sum()), unit)


def conditional_mutual_information(joint3, unit: str = "bits") -> InfoValue:
    """``I(A;B|C)`` from a dense 3-axis joint pmf with axes ``(A, B, C)``.

    The array is validated like a joint distribution (nonnegative entries,
    total mass within ``MASS_TOL`` of 1) but zero-mass slices are fine:
    they simply contribute nothing.  Computed as the average under P(b, c)
    of ``KL(P(a|b,c) || P(a|c))``: no product of marginals is formed, so
    none can underflow to zero and turn the result into ``inf - inf``.
    """
    q = _pmf(joint3, "trivariate joint", 3)
    pac, pbc = q.sum(axis=1), q.sum(axis=0)
    a_bc = np.divide(q, pbc, out=np.zeros_like(q), where=q > 0.0)
    a_c = np.divide(pac, pac.sum(axis=0), out=np.ones_like(pac),
                    where=pac > 0.0)
    return info_from_nats(
        float((pbc * rel_entr(a_bc, a_c[:, None, :])).sum()), unit)


def _pushforward_labels(labels, mapping: DeterministicMap):
    if labels is None:
        return None
    joined = []
    for c in range(mapping.image_size):
        members = np.nonzero(mapping.assignment == c)[0]
        joined.append("+".join(labels[i] for i in members))
    return tuple(joined)


def pushforward(j: JointDistribution, s: DeterministicMap,
                t: DeterministicMap) -> JointDistribution:
    """Aggregate a joint pmf through per-coordinate symbol maps."""
    if s.domain_size != j.nx or t.domain_size != j.ny:
        raise DimensionError(
            f"maps cover ({s.domain_size}, {t.domain_size}) symbols, "
            f"joint has ({j.nx}, {j.ny})")
    red = np.zeros((s.image_size, t.image_size))
    np.add.at(red, (s.assignment[:, None], t.assignment[None, :]), j.p)
    return JointDistribution(
        red,
        x_labels=_pushforward_labels(j.x_labels, s),
        y_labels=_pushforward_labels(j.y_labels, t),
    )


def lift_conditional(p_u_given_v: ConditionalKernel,
                     v: DeterministicMap) -> ConditionalKernel:
    """Precompose a kernel on V with a deterministic map ``v: X -> V``.

    Row x of the result is row ``v(x)`` of the input, so the lifted variable
    depends on x only through ``v(x)`` and the joint of (U, v(X)) is
    preserved exactly.
    """
    if p_u_given_v.rows != v.image_size:
        raise DimensionError(
            f"kernel has {p_u_given_v.rows} rows, map image has {v.image_size}")
    return ConditionalKernel(p_u_given_v.k[v.assignment])
