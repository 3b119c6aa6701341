"""The benchmark's tracer finds every function it wraps.

``perfbench/layers.py`` names the traced functions by module and attribute.
A rename under ``src/`` would break ``python3 perfbench/run.py --trace 1``
only when the benchmark runs, so these tests check the names.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

import infosep.common_info
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
    assert calls["logsumexp"] > 0
