"""Independent references the tests compare the package against.

Nothing here calls a solver of the package: each reference computes its
answer another way, so agreement is evidence, not a tautology.
`gk_spectral` is built on a package computation: it
reads the unit modes of `modal_decompose`, so it is independent of the
support-graph route of `gacs_korner` but not of the spectrum.
`label_components_scipy` is SciPy's component labeler, which the package
itself does not import.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from infosep._grouping import group_rows, label_components
from infosep.common_info import GkResult
from infosep.dist import (
    DeterministicMap,
    InfoValue,
    JointDistribution,
    conditional_mutual_information,
    entropy,
    info_from_nats,
    marginals,
)
from infosep.errors import DimensionError, NumericalError
from infosep.modal import ROW_GROUP_TOL, modal_decompose

#: singular values within this of 1 are candidate unit modes
UNIT_TOL = 1e-8
#: feature rows within this in sup norm belong to one common symbol, and
#: support-cell feature differences with singular values up to it vanish
FEATURE_GROUP_TOL = 1e-8


class NoFeasiblePoint(Exception):
    """Exhaustive search found no parameter point matching the target."""


def wyner_grid_oracle(j: JointDistribution, grid_steps: int = 101,
                      match_tol: float | None = None,
                      unit: str = "bits") -> InfoValue:
    """Brute-force Wyner estimate for 2x2 joints with a binary auxiliary.

    Grids (P(W=0), P(X=0|W=0), P(Y=0|W=0)) on a ``grid_steps``-per-axis
    lattice, solves the remaining component parameters from the marginal
    constraints, keeps lattice points whose induced mixture matches the
    target joint within ``match_tol`` (half a lattice cell by default), and
    returns the smallest I(W; X, Y) among them.  Slow and deliberately
    independent of the descent solver, down to its own masked sum.
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


def refines(fine: DeterministicMap, coarse: DeterministicMap) -> bool:
    """True when symbols that ``fine`` maps together ``coarse`` maps together.

    That is, the partition of ``fine`` is finer than or equal to that of
    ``coarse``: each class of ``fine`` meets exactly one class of ``coarse``.
    """
    if fine.domain_size != coarse.domain_size:
        raise ValueError("maps are defined on different domains")
    pairs = set(zip(fine.assignment.tolist(), coarse.assignment.tolist()))
    return len(pairs) == fine.image_size


def cube_cmi(j: JointDistribution, mapping: DeterministicMap, axis: int) -> float:
    """I(X;Y|L) in bits for a label L = mapping(X) (axis 0) or mapping(Y) (1).

    Builds the dense (x, y, label) cube and takes its conditional mutual
    information directly; it vanishes exactly when the map is sufficient
    for its coordinate.
    """
    xs, ys = np.meshgrid(np.arange(j.nx), np.arange(j.ny), indexing="ij")
    cube = np.zeros((j.nx, j.ny, mapping.image_size))
    cube[xs, ys, mapping.assignment[xs if axis == 0 else ys]] = j.p
    return conditional_mutual_information(cube).value


def group_rows_all_pairs(rows, tol: float) -> np.ndarray:
    """All-pairs reference for `infosep._grouping.group_rows`.

    Compares each row with every later row in sup norm, with the same float
    arithmetic, and merges close pairs by union-find; classes are numbered
    in order of first occurrence.  O(n^2 * width) time and no memory guard,
    so keep inputs small.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in range(n - 1):
        gap = np.max(np.abs(rows[r + 1:] - rows[r]), axis=1, initial=0.0)
        for k in r + 1 + np.flatnonzero(gap <= tol):
            parent[find(int(k))] = find(r)
    first = {}
    return np.array([first.setdefault(find(a), len(first)) for a in range(n)],
                    dtype=np.int64)


def label_components_scipy(n: int, i, k) -> np.ndarray:
    """SciPy reference for `infosep._grouping.label_components`.

    Labels the components of the undirected graph on ``range(n)`` with
    edges ``(i[e], k[e])`` by `scipy.sparse.csgraph.connected_components`,
    then renumbers them in order of their first vertex.
    """
    graph = coo_matrix((np.ones(len(i)), (i, k)), shape=(n, n))
    comp = connected_components(graph, directed=False)[1]
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[comp]


def minimal_maps_by_profiles(j: JointDistribution):
    """Minimal sufficient maps by grouping conditional profiles.

    Groups x symbols whose rows ``P(y|x)`` lie within ``ROW_GROUP_TOL`` in
    sup norm and y symbols by ``P(x|y)``.  This differs from grouping
    density-ratio rows on tiny-mass symbols and on zero patterns, but on
    tables in the normal float range the two should agree.
    """
    px, py = marginals(j)
    return (DeterministicMap(group_rows(j.p / px[:, None], ROW_GROUP_TOL)),
            DeterministicMap(group_rows(j.p.T / py[:, None], ROW_GROUP_TOL)))


def _entropy_of_classes(px: np.ndarray, labels: np.ndarray,
                        n_classes: int, unit: str) -> InfoValue:
    masses = np.zeros(n_classes)
    np.add.at(masses, labels, px)
    return entropy(masses, unit)


def gk_spectral(j: JointDistribution, unit: str = "bits") -> GkResult:
    """Deterministic common part via the dependence spectrum.

    A combination of the c candidate modes (within ``UNIT_TOL`` of 1) is an
    exact unit mode, f(X) = g(Y) almost surely, exactly when its x and y
    features agree on every support cell.  ``k`` is the dimension of that
    null space of ``F[x, :c] - G[y, :c]`` over the support cells, from one
    thin SVD with singular values up to ``FEATURE_GROUP_TOL`` taken as 0.
    A near unit mode differs by order one across the low-mass cell joining
    its sides, so it stays outside even where the SVD mixed it into an
    exact one.  The x and y feature rows in the null space are grouped
    jointly into one alphabet; the value is the entropy of its symbol.

    `NumericalError` is raised when the maps disagree on a support cell, or
    when k < c and they have fewer classes than the support graph has
    components (maps that agree on the support never have more): a unit
    mode whose feature on a tiny-mass symbol is lost to rounding leaves the
    null space too, and would read low.
    """
    md = modal_decompose(j)
    xs, ys = np.nonzero(j.p > 0.0)
    c = int(np.sum(md.sigmas >= 1.0 - UNIT_TOL))
    _, sv, vt = np.linalg.svd(md.F[xs, :c] - md.G[ys, :c],
                              full_matrices=False)
    null = vt[int(np.sum(sv > FEATURE_GROUP_TOL)):].T
    k = null.shape[1]
    labels = group_rows(np.vstack([md.F[:, :c], md.G[:, :c]]) @ null,
                        FEATURE_GROUP_TOL)
    labels_x, labels_y = labels[:j.nx], labels[j.nx:]
    n_classes = int(labels.max()) + 1
    if np.any(labels_x[xs] != labels_y[ys]):
        raise NumericalError("common maps disagree on a support cell")
    if k < c:
        components = int(label_components(j.nx + j.ny, xs, j.nx + ys).max()) + 1
        if n_classes < components:
            raise NumericalError(
                f"unit modes are not exact: {n_classes} common classes "
                f"against {components} support components")
    return GkResult(
        value=_entropy_of_classes(md.px, labels_x, n_classes, unit),
        k=k,
        common_map_x=DeterministicMap(labels_x, n_classes),
        common_map_y=DeterministicMap(labels_y, n_classes),
        component_count=n_classes,
    )
