"""In-memory spans for the traced run.

``Tracer.wrap`` replaces a module attribute with a function that records a
span (name, start, end, parent) around the original.  The program's own
modules call each other through their module globals, so a wrapped
``trace.components`` also shows up when ``build_curve_graph`` calls it,
nested under that call's span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # index of the op the span belongs to


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        rec.start = time.perf_counter()
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> tuple[dict, dict]:
        """Per span name: summed duration and summed self time.

        Self time is the duration minus the time of the direct children,
        which never overlap because everything runs on one thread.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, s in enumerate(self.spans):
            total[s.name] += s.end - s.start
            own[s.name] += s.end - s.start - child[i]
        return total, own
