"""Independent references the tests compare the package against.

Nothing here calls a solver of the package: each reference computes its
answer another way, so agreement is evidence, not a tautology.
"""

import numpy as np

from infosep.dist import (
    DeterministicMap,
    InfoValue,
    JointDistribution,
    conditional_mutual_information,
    info_from_nats,
    marginals,
)
from infosep.errors import DimensionError


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
