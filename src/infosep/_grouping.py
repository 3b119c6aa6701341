"""Symbol grouping: the one place that labels connected components.

The reduction code (minimal sufficient maps) and the common-part code
(Gacs-Korner) both group symbols into the connected components of a graph
on the symbols.  Both functions here merge edges into one root array,
``root[v]`` being the smallest vertex of v's component found so far, by
Shiloach and Vishkin's hooking with pointer jumping (1982) in numpy.
`label_components` labels the components of a given edge list; Gacs-Korner
calls it on the support graph.  `group_rows` joins rows within a tolerance
of each other for the reduction, merging each batch of edges as it finds
it, so no edge list is stored.

`group_rows` does not compare every pair of rows.  Two rows are joined when
they differ by at most ``tol`` in every column, so a set of rows whose
per-column spread is at most ``tol`` is one clique, and a set sorted by one
column splits at every gap above ``tol`` with no edge crossing the gap.
Only a set that neither test resolves is compared pair by pair.
"""

from __future__ import annotations

import numpy as np


def _join(root: np.ndarray, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Merge the edges ``(i[e], k[e])`` into a root array and return it.

    On entry and on return every vertex points at a root, and a root is
    the smallest vertex of its tree.  Each round hooks the larger root of
    every edge under the smaller one (an edge inside one tree hooks its
    root under itself, a no-op), then jumps pointers until every vertex
    points at a root again.  Pointers only decrease (``root[v] <= v``
    throughout), so the trees stay acyclic; the rounds end when both ends
    of every edge share a root.
    """
    while True:
        lo, hi = root[i], root[k]
        if np.array_equal(lo, hi):
            return root
        np.minimum.at(root, np.maximum(lo, hi), np.minimum(lo, hi, out=lo))
        while not np.array_equal(root, hop := root[root]):
            root = hop


def label_components(n: int, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Component labels of the undirected graph on ``range(n)``.

    Edges are ``(i[e], k[e])``.  Components are numbered in order of their
    first vertex, so the labeling is deterministic.
    """
    root = _join(np.arange(n), i, k)
    return np.unique(root, return_inverse=True)[1]


def group_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Label rows by transitive closeness: rows within `tol` in sup norm merge.

    Merging is closed under chaining (a~b and b~c put a, c in one class even
    when a and c differ by more than `tol`).  Class labels are assigned in
    order of first occurrence, so the labeling is deterministic.  Zero-width
    rows are all identical and form one class.  A row with a non-finite
    entry is compared with no other row and forms a class of its own.

    The graph is explored by sort-and-split on a work list of row sets,
    which starts with all finite rows:

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

    Every edge found is an edge of the all-pairs closeness graph and every
    set is connected as in that graph, so the labels equal those of
    comparing all pairs.  Each batch of edges (a star, or one row's close
    later rows) is merged into a root array of the rows as soon as it is
    found, so memory stays O(n * width) however many edges there are.
    Typical inputs (groups of coinciding rows, far apart) take a few sorts.
    The worst case, splits that peel off few rows or one set that will not
    split, is O(n^2 * (width + log n)), no worse than comparing all pairs.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("group_rows expects a 2-d array")
    root = np.arange(rows.shape[0])
    work = [np.flatnonzero(np.isfinite(rows).all(axis=1))]
    while work:
        idx = work.pop()
        if idx.size < 2:
            continue
        sub = rows[idx]
        spread = np.ptp(sub, axis=0)
        if np.max(spread, initial=0.0) <= tol:
            root = _join(root, np.full(idx.size - 1, idx[0]), idx[1:])
            continue
        col = int(np.argmax(spread))
        order = np.argsort(sub[:, col])
        cuts = np.flatnonzero(np.diff(sub[order, col]) > tol) + 1
        if cuts.size:
            work.extend(np.split(idx[order], cuts))
            continue
        for r in range(idx.size - 1):
            gap = np.max(np.abs(sub[r + 1:] - sub[r]), axis=1, initial=0.0)
            near = idx[r + 1 + np.flatnonzero(gap <= tol)]
            root = _join(root, np.full(near.size, idx[r]), near)
    return np.unique(root, return_inverse=True)[1]
