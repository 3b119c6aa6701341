"""Symbol grouping: components, closeness under chaining and first-occurrence
labels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infosep._grouping import group_rows, label_components
from oracles import group_rows_all_pairs, label_components_scipy

#: cell values in quarters, so gaps of exactly `tol` are exact in floats
QUARTERS = st.integers(-8, 8).map(lambda v: v / 4)


@st.composite
def row_sets(draw):
    """Rows drawn from a small pool (many coincide, ties at exactly tol),
    optionally with a chain in column 0 and a jitter far below tol."""
    n = draw(st.integers(0, 40))
    width = draw(st.integers(0, 4))
    tol = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 6)), width),
                       elements=QUARTERS))
    rows = pool[draw(arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))]
    if width and draw(st.booleans()):
        # steps of at most tol link rows whose ends lie far apart
        steps = draw(arrays(np.float64, n,
                            elements=st.sampled_from([0.0, tol / 2, tol, 2 * tol])))
        order = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
        rows[:, 0] = np.cumsum(steps)[order]
    if draw(st.booleans()):
        rows = rows + draw(arrays(np.float64, rows.shape,
                                  elements=st.sampled_from([0.0, 1e-12, -1e-12])))
    return rows, tol


@settings(max_examples=300)
@given(row_sets())
@example((np.zeros((0, 3)), 0.5))
@example((np.zeros((1, 3)), 0.5))
@example((np.zeros((5, 0)), 0.0))
@example((np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.5], [1.5, 0.5]]), 0.5))
def test_labels_equal_the_all_pairs_oracle(case):
    rows, tol = case
    labels = group_rows(rows, tol)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, group_rows_all_pairs(rows, tol))


def test_chaining_merges_rows_further_apart_than_tol():
    labels = group_rows(np.array([[0.0], [0.5], [1.0]]), 0.5)
    assert labels.tolist() == [0, 0, 0]


def test_distance_exactly_tol_merges():
    assert group_rows(np.array([[0.0, 1.0], [0.25, 1.25]]), 0.25).tolist() == [0, 0]
    assert group_rows(np.array([[0.0, 1.0], [0.25, 1.5]]), 0.25).tolist() == [0, 1]


def test_labels_follow_first_occurrence():
    a, b, c = [0.2, 0.8], [0.6, 0.4], [1.0, 0.0]
    labels = group_rows(np.array([b, a, b, c, a]), 1e-10)
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 1, 0, 2, 1]


def test_zero_width_rows_form_one_class():
    assert group_rows(np.zeros((4, 0)), 1e-10).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_singletons(bad):
    # rows 1 and 3 are equal but not finite, so neither joins another row;
    # the finite rows group as they do without them
    finite = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1e-12]])
    rows = np.insert(finite, [1, 2], [[bad, 0.0], [bad, 0.0]], axis=0)
    assert group_rows(finite, 1e-10).tolist() == [0, 0, 1, 1]
    assert group_rows(rows, 1e-10).tolist() == [0, 1, 0, 2, 3, 3]
    assert group_rows(rows[[1, 3]], 1e-10).tolist() == [0, 1]


@pytest.mark.parametrize("bad", [np.float64(3.0), np.zeros(3), np.zeros((2, 2, 2))])
def test_rejects_non_2d_input(bad):
    with pytest.raises(ValueError, match="2-d array"):
        group_rows(bad, 1e-10)


def test_memory_stays_bounded_when_all_rows_coincide():
    rows = np.zeros((3000, 1))
    tracemalloc.start()
    try:
        labels = group_rows(rows, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == [0] * 3000
    assert peak < 32 * 2**20


def test_edge_collapse_keeps_labels():
    # 1500 copies each of two rows: two cliques, each joined by star edges
    rows = np.tile([[0.0, 1.0], [1.0, 0.0]], (1500, 1))
    assert group_rows(rows, 1e-10).tolist() == [0, 1] * 1500


def test_memory_stays_bounded_in_the_pairwise_fallback():
    # column 0 is a chain 0, 1, ..., 20 under tol 1, so no sorted gap splits
    # the set and its 3,000 rows at 0 are compared pair by pair: about 2.2M
    # close pairs, which are merged into the root array row by row and never
    # stored together;
    # column 1 keeps the two halves of those rows apart
    coinciding = np.tile([[0.0, 0.0], [0.0, 1.5]], (1500, 1))
    chain = np.column_stack([np.arange(1.0, 21.0), np.zeros(20)])
    rows = np.vstack([coinciding, chain])
    tracemalloc.start()
    try:
        labels = group_rows(rows, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.tolist() == [0, 1] * 1500 + [0] * 20
    assert peak < 32 * 2**20


def bipartite_edges(p):
    """Support-graph edges of a table, x symbols first, as in `gacs_korner`."""
    xs, ys = np.nonzero(np.asarray(p) > 0.0)
    return len(p) + len(p[0]), xs, len(p) + ys


def random_sparse(n, m, seed):
    rng = np.random.default_rng(seed)
    return n, rng.integers(0, n, size=m), rng.integers(0, n, size=m)


def path(order):
    """A path through the vertices in the given order."""
    return order.size, order[:-1], order[1:]


PATH = np.arange(100_000)

GRAPHS = {
    "no vertices": (0, [], []),
    "no edges": (5, [], []),
    "self-loops": (4, [0, 2, 3], [0, 2, 3]),
    "duplicate edges": (5, [3, 1, 3, 4, 1], [1, 3, 1, 4, 3]),
    "star from the last vertex": (6, [5, 5, 5, 5], [0, 1, 2, 3]),
    "star from the middle": (7, [3, 3, 3, 3, 3], [6, 0, 5, 1, 2]),
    "dense 400x400": bipartite_edges(np.ones((400, 400))),
    "4-block 400x400": bipartite_edges(
        np.kron(np.eye(4), np.ones((100, 100)))),
    "sparse, few edges": random_sparse(500, 200, 0),
    "sparse, near the giant component": random_sparse(2000, 1000, 1),
    "sparse, connected": random_sparse(300, 3000, 2),
    "path forwards": path(PATH),
    "path backwards": path(PATH[::-1]),
    "path shuffled": path(np.random.default_rng(3).permutation(PATH)),
}


def assert_components_match_the_oracle(n, i, k):
    i, k = np.asarray(i, dtype=np.int64), np.asarray(k, dtype=np.int64)
    labels = label_components(n, i, k)
    assert labels.dtype == np.int64 and labels.shape == (n,)
    np.testing.assert_array_equal(labels, label_components_scipy(n, i, k))


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
def test_components_equal_the_scipy_oracle(graph):
    assert_components_match_the_oracle(*graph)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 30))
    ends = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n if n else 0))
    return n, [e[0] for e in edges], [e[1] for e in edges]


@settings(max_examples=200)
@given(edge_lists())
def test_random_components_equal_the_scipy_oracle(graph):
    assert_components_match_the_oracle(*graph)


def test_components_are_numbered_by_first_vertex():
    # the edges name the components' later vertices first
    labels = label_components(6, np.array([4, 5, 3]), np.array([1, 2, 0]))
    assert labels.tolist() == [0, 1, 2, 0, 1, 2]
