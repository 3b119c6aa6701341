"""Span tracing of infosep layers from outside the package.

A :class:`Tracer` temporarily replaces module attributes of the ``infosep``
package with timing wrappers.  A function imported into several modules
(``group_rows`` into ``modal`` and ``common_info``, ``pushforward`` into four
modules) is replaced at every binding, so calls are seen whichever module
makes them.  Each call records a span ``(name, start, end, parent)``;
``parent`` is the index of the enclosing span, ``-1`` for a root.  Spans stay
in memory until :meth:`Tracer.take` hands them over.

Nothing under ``src/`` knows about this module; the originals are put back
when the ``with`` block ends, also when it ends by an exception.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``module`` and ``attr`` locate the function.  With ``only`` set, just the
    bindings in those modules are replaced; otherwise every ``infosep``
    module attribute that holds the same object is.  ``on_result`` receives
    ``(counts, args, kwargs, result)`` after each call, to record counts
    that only the arguments or the result reveal.
    """

    name: str
    module: str
    attr: str
    only: tuple | None = None
    on_result: Callable | None = None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int


def _infosep_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "infosep" or name.startswith("infosep."))]


class Tracer:
    """Context manager that traces the given targets while it is open."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._patched: list = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, target: Target):
        original = getattr(sys.modules[target.module], target.attr)
        wrapper = self._wrap(target, original)
        modules = ([sys.modules[name] for name in target.only]
                   if target.only else _infosep_modules())
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, target: Target, fn):
        name, on_result = target.name, target.on_result
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around one request made by the benchmark; children nest in it."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start
            - covered(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    ``total_s`` adds only outermost spans of a name, so a function that
    reaches itself again through other traced calls is not counted twice.
    """
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry["total_s"] += span.end - span.start
    return dict(out)
