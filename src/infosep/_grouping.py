"""Symbol grouping: the one place that labels connected components.

The reduction code (minimal sufficient maps) and the common-part code
(Gacs-Korner) both group symbols into the connected components of a graph
on the symbols.  `label_components` labels those components.  The
reduction joins rows within a tolerance of each other, and `group_rows`
builds that closeness graph for it; Gacs-Korner joins x and y symbols that
share a support cell and calls `label_components` directly.

`group_rows` does not compare every pair of rows.  Two rows are joined when
they differ by at most ``tol`` in every column, so a set of rows whose
per-column spread is at most ``tol`` is one clique, and a set sorted by one
column splits at every gap above ``tol`` with no edge crossing the gap.
Only a set that neither test resolves is compared pair by pair.
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
    rows are all identical and form one class.  A row with a non-finite
    entry is compared with no other row and forms a class of its own.

    The graph is built by sort-and-split on a work list of row sets, which
    starts with all finite rows:

    - a set whose largest per-column spread is at most `tol` is a clique,
      and star edges from its first row join it;
    - otherwise the set is sorted by its column of largest spread and split
      at every gap above `tol` between consecutive sorted values; the
      parts go back on the list.  The split is exact: the rounded
      difference of two floats grows with their distance, so rows on
      either side of such a gap differ by more than `tol` in that column
      and share no edge;
    - a set with no such gap is compared pair by pair, each row with all
      later rows of the set.

    Every edge added is an edge of the all-pairs closeness graph and every
    set is connected as in that graph, so the labels equal those of
    comparing all pairs.  Typical inputs (groups of coinciding rows, far
    apart) take a few sorts.  The worst case, splits that peel off few rows
    or one set that will not split, is O(n^2 * (width + log n)), no worse
    than comparing all pairs.  Memory stays O(n * width): whenever more
    than ``64 * n`` edges are stored they are replaced by a spanning forest
    of their components.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("group_rows expects a 2-d array")
    n = rows.shape[0]
    heads = [np.empty(0, dtype=np.int64)]
    tails = [np.empty(0, dtype=np.int64)]
    stored = 0
    work = [np.flatnonzero(np.isfinite(rows).all(axis=1))]
    while work:
        idx = work.pop()
        if idx.size < 2:
            continue
        sub = rows[idx]
        spread = np.ptp(sub, axis=0)
        if np.max(spread, initial=0.0) <= tol:
            heads.append(np.full(idx.size - 1, idx[0]))
            tails.append(idx[1:])
            continue
        col = int(np.argmax(spread))
        order = np.argsort(sub[:, col])
        cuts = np.flatnonzero(np.diff(sub[order, col]) > tol) + 1
        if cuts.size:
            work.extend(np.split(idx[order], cuts))
            continue
        for r in range(idx.size - 1):
            # one row against all later rows of the set keeps memory at
            # O(n * width)
            gap = np.max(np.abs(sub[r + 1:] - sub[r]), axis=1, initial=0.0)
            near = idx[r + 1 + np.flatnonzero(gap <= tol)]
            heads.append(np.full(near.size, idx[r]))
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
