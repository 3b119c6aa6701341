"""Symbol grouping: the one place that labels connected components.

The reduction code (minimal sufficient maps) and the common-part code
(Gacs-Korner) both group symbols into the connected components of a graph
on the symbols: rows within a tolerance of each other, or x and y symbols
joined by a support cell.  `label_components` labels those components and
`group_rows` builds the closeness graph for it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def label_components(n: int, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Component labels of the undirected graph on ``range(n)``.

    Edges are ``(i[e], k[e])``.  Components are numbered in order of their
    first vertex, so the labeling is deterministic.
    """
    graph = coo_matrix((np.ones(len(i)), (i, k)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[comp]


def group_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Label rows by transitive closeness: rows within `tol` in sup norm merge.

    Merging is closed under chaining (a~b and b~c put a, c in one class even
    when a and c differ by more than `tol`).  Class labels are assigned in
    order of first occurrence, so the labeling is deterministic.  Zero-width
    rows are all identical and form one class.  Memory stays O(n * width):
    whenever more than ``64 * n`` edges are stored they are replaced by a
    spanning forest of their components.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("group_rows expects a 2-d array")
    n = rows.shape[0]
    heads = [np.empty(0, dtype=np.int64)]
    tails = [np.empty(0, dtype=np.int64)]
    stored = 0
    for r in range(n - 1):
        # one row against all later rows keeps memory at O(n * width)
        gap = np.max(np.abs(rows[r + 1:] - rows[r]), axis=1, initial=0.0)
        near = r + 1 + np.flatnonzero(gap <= tol)
        heads.append(np.full(near.size, r))
        tails.append(near)
        stored += near.size
        if stored > 64 * n:
            # many coinciding rows: keep one edge per vertex to its
            # component's first vertex, which leaves the components as-is
            labels = label_components(n, np.concatenate(heads),
                                      np.concatenate(tails))
            _, first = np.unique(labels, return_index=True)
            tails = [np.flatnonzero(first[labels] != np.arange(n))]
            heads = [first[labels[tails[0]]]]
            stored = tails[0].size
    return label_components(n, np.concatenate(heads), np.concatenate(tails))
