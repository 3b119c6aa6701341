"""Reference values the benchmark checks the program's outputs against.

Written with numpy and scipy only, independently of the infosep code paths
they check.  All information values are in bits.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def _normalized(p):
    p = np.asarray(p, dtype=float)
    return p / p.sum()


def entropy_bits(masses) -> float:
    q = np.asarray(masses, dtype=float).ravel()
    q = q[q > 0.0]
    return float(-(q * np.log2(q)).sum())


def _ratio(p):
    px, py = p.sum(axis=1), p.sum(axis=0)
    weight = np.outer(px, py)
    return weight, p / weight


def f_informations(p) -> dict:
    """The five built-in f-informations; ``kl`` is the mutual information."""
    p = _normalized(p)
    weight, u = _ratio(p)
    pos = u > 0.0
    up = u[pos]
    return {
        "kl": float((weight[pos] * up * np.log2(up)).sum()),
        "reverse-kl": (float((weight[pos] * -np.log2(up)).sum())
                       if pos.all() else float("inf")),
        "chi2": float((weight * (u - 1.0) ** 2).sum()),
        "tv": float((weight * 0.5 * np.abs(u - 1.0)).sum()),
        "hellinger2": float((weight * (np.sqrt(u) - 1.0) ** 2).sum()),
    }


def spectrum(p, rank_tol: float = 1e-10) -> list:
    """Nonzero singular values of the weighted centered density ratio."""
    p = _normalized(p)
    px, py = p.sum(axis=1), p.sum(axis=0)
    m = (p - np.outer(px, py)) / np.sqrt(np.outer(px, py))
    sig = np.linalg.svd(m, compute_uv=False)
    return [float(s) for s in np.minimum(sig[sig > rank_tol], 1.0)]


def gacs_korner_bits(p):
    """(value, component count) from the bipartite support graph."""
    p = _normalized(p)
    nx, ny = p.shape
    xs, ys = np.nonzero(p > 0.0)
    graph = csr_matrix((np.ones(xs.size), (xs, nx + ys)), shape=(nx + ny,) * 2)
    n, labels = connected_components(graph, directed=False)
    masses = np.bincount(labels[:nx], weights=p.sum(axis=1), minlength=n)
    return entropy_bits(masses), n


def exact_measures(p) -> dict:
    """Exact measures of a table, as ``infosep measures`` reports them."""
    p = _normalized(p)
    f_info = f_informations(p)
    gk, components = gacs_korner_bits(p)
    return {
        "h_x": entropy_bits(p.sum(axis=1)),
        "h_y": entropy_bits(p.sum(axis=0)),
        "mi": f_info["kl"],
        "f_info": f_info,
        "sigmas": spectrum(p),
        "gk": gk,
        "gk_components": components,
    }


def _h2(a: float) -> float:
    return entropy_bits([a, 1.0 - a])


def dsbs_wyner_bits(flip: float) -> float:
    """Closed-form Wyner common information of DSBS(flip), flip <= 1/2.

    C = 1 + h(flip) - 2 h(a) with a = (1 - sqrt(1 - 2 flip)) / 2
    (Wyner 1975); 0.872761 bits at flip 0.1.
    """
    a = (1.0 - np.sqrt(1.0 - 2.0 * flip)) / 2.0
    return 1.0 + _h2(flip) - 2.0 * _h2(a)
