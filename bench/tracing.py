"""Spans around the package's layers, installed from outside.

The package has no trace hook yet, so the traced run replaces each
layer's public functions with timing wrappers at the module attributes
where callers look them up (``sft_tensor.sft.evaluate`` is what
``decide_sft`` calls, ``sft_tensor.cli.decide_sft`` is what the CLI
calls).  Spans nest, and a layer's self time is its span minus the part
of it covered by child spans.  ``linalg`` and ``semiring`` have no call
boundary reachable this way: their time lands in the spans of the
functions that call them.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Records (name, start, end, parent) spans in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def reset(self):
        self.spans = []
        self._stack = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int):
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def self_times(self) -> dict:
        return self_times(self.spans)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def self_times(spans: list) -> dict:
    """Sum per name of each span's duration minus the length of the union
    of its children's intervals, clipped to the span."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def wrap(tracer: Tracer, name: str, fn):
    """fn inside a span called name."""

    def traced(*args, **kwargs):
        index = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(index)

    traced.__wrapped__ = fn
    return traced


class Installed:
    """Wrappers set on modules; restore() puts the originals back.

    A (module, attribute) pair that no longer exists, say after a
    refactor moved a call, makes its span *missing*: the layer's numbers
    would silently read low, so they are reported as missing instead.
    """

    def __init__(self, tracer: Tracer, points):
        self.missing: dict = {}
        self._saved: list = []
        for span, module, attr in points:
            if not hasattr(module, attr):
                self.missing.setdefault(span, []).append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(tracer, span, original))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
