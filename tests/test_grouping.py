"""Symbol grouping: closeness under chaining and first-occurrence labels."""

import tracemalloc

import numpy as np
import pytest

from infosep._grouping import group_rows


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
    # 1500 copies each of two rows: the edge set is collapsed many times
    rows = np.tile([[0.0, 1.0], [1.0, 0.0]], (1500, 1))
    assert group_rows(rows, 1e-10).tolist() == [0, 1] * 1500
