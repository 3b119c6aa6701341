"""The benchmark's tracer finds every function it wraps.

``perfbench/layers.py`` names the traced functions by module and attribute.
A rename under ``src/`` would break ``python3 perfbench/run.py --trace 1``
only when the benchmark runs, so these tests check the names.
"""

import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import infosep.common_info
import infosep.ib
from infosep.cli import main
from infosep.common_info import wyner_solve
from infosep.harness import dsbs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.layers").TARGETS


def test_every_target_resolves(targets):
    assert targets
    for target in targets:
        module = importlib.import_module(target.module)
        fn = getattr(module, target.attr)
        assert callable(fn), target.name
        for name in target.only or ():
            assert getattr(importlib.import_module(name), target.attr) is fn


def test_wyner_solve_calls_the_traced_functions(monkeypatch):
    calls = Counter()
    for attr in ("_wyner_stage", "_wyner_eval", "logsumexp"):
        fn = getattr(infosep.common_info, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(infosep.common_info, attr, counted)
    wyner_solve(dsbs(0.1), card_w=2, restarts=0)
    # both copy starts run in one stack: one stage call per penalty weight
    assert calls["_wyner_stage"] == len(infosep.common_info.PENALTY_SCHEDULE)
    assert calls["_wyner_eval"] > calls["_wyner_stage"]
    # a stage evaluates its starting stack once, then each descent round
    # makes one `logsumexp` and one `_wyner_eval` call
    assert calls["logsumexp"] == calls["_wyner_eval"] - calls["_wyner_stage"]


def test_bottleneck_runs_report_their_lockstep_cycles(monkeypatch, tmp_path):
    # the tracer counts len(result[2]) - 1 of each _ib_run call as its
    # iterations.  An iteration refreshes three times and normalizes one
    # extrapolated point, four logsumexp calls; the last one, where every
    # remaining run has settled, refreshes once
    results, updates = [], Counter()
    run, lse = infosep.ib._ib_run, infosep.ib.logsumexp

    def traced_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    def counted_lse(*args, **kwargs):
        updates["logsumexp"] += 1
        return lse(*args, **kwargs)

    monkeypatch.setattr(infosep.ib, "_ib_run", traced_run)
    monkeypatch.setattr(infosep.ib, "logsumexp", counted_lse)
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps({"p": dsbs(0.1).p.tolist()}))
    assert main(["measures", str(path), "--restarts", "2",
                 "--json-out", str(tmp_path / "out.json")]) == 0
    # all 3 multipliers times 3 starts run in one stack, and every run ends
    # by itself
    assert len(results) == 1 and len(results[0][0]) == 9
    assert results[0][1].all()
    iterations = len(results[0][2]) - 1
    assert iterations > 1 and updates["logsumexp"] == 4 * iterations - 3
