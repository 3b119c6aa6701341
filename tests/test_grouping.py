"""Symbol grouping: closeness under chaining and first-occurrence labels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infosep._grouping import group_rows
from oracles import group_rows_all_pairs

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
    # close pairs, which only the spanning-forest guard keeps out of memory;
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
