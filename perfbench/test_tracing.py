"""Tests of the benchmark's tracing wrappers.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import sys

import pytest

import infosep.cli
from perfbench.layers import TARGETS
from perfbench.tracing import Span, Tracer, self_times, summarize
from perfbench.workloads import dsbs_table, write_table


def _bindings():
    """Every attribute of every loaded infosep module, by identity."""
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if module is not None and (name == "infosep" or name.startswith("infosep."))
            for attr, value in vars(module).items()}


def _report(tmp_path, name, tracer=None):
    src = tmp_path / "dsbs.json"
    write_table(str(src), dsbs_table(0.1))
    out = tmp_path / name
    argv = ["measures", str(src), "--restarts", "0", "--beta", "2",
            "--wyner-card", "2", "--json-out", str(out)]
    if tracer is None:
        assert infosep.cli.main(argv) == 0
    else:
        with tracer:
            assert infosep.cli.main(argv) == 0
    return [line for line in out.read_bytes().splitlines(keepends=True)
            if b'"timestamp"' not in line]


def test_traced_report_matches_untraced(tmp_path):
    plain = _report(tmp_path, "plain.json")
    tracer = Tracer(TARGETS)
    traced = _report(tmp_path, "traced.json", tracer)
    assert traced == plain
    summary = summarize(tracer.take()[0])
    assert summary["cli.main"]["calls"] == 1
    assert summary["common_info.wyner_solve"]["calls"] == 1
    assert summary["common_info.wyner_eval"]["calls"] > 100
    assert summary["ib.ib_run"]["calls"] == 1


def test_every_binding_is_replaced_then_restored(tmp_path):
    import infosep._grouping
    import infosep.common_info
    import infosep.modal

    before = _bindings()
    original = infosep._grouping.group_rows
    with Tracer(TARGETS):
        assert infosep.modal.group_rows is infosep.common_info.group_rows
        assert infosep.modal.group_rows is not original
        assert infosep.common_info.logsumexp is not infosep.ib.logsumexp
    assert _bindings() == before

    with pytest.raises(RuntimeError):
        with Tracer(TARGETS):
            raise RuntimeError("boom")
    assert _bindings() == before

    _report(tmp_path, "traced.json", Tracer(TARGETS))
    assert _bindings() == before


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),    # overlaps a: together they cover [1, 6]
        Span("c", 2.0, 3.0, 1),
        Span("d", 9.5, 11.0, 0),   # runs past its parent: only [9.5, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 1.5])


def test_summary_counts_nested_same_name_once():
    spans = [
        Span("f", 0.0, 4.0, -1),
        Span("g", 1.0, 3.0, 0),
        Span("f", 1.5, 2.5, 1),
    ]
    summary = summarize(spans)
    assert summary["f"]["calls"] == 2
    assert summary["f"]["total_s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert summary["g"]["self_s"] == pytest.approx(1.0)
