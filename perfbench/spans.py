"""Spans around the program's public calls, recorded from outside it.

A :class:`Tracer` replaces a method on the class that defines it, or a
function in every ``repro`` module that binds it, with a wrapper that
records one span per call: layer name, parent span, start and end. The
spans stay in memory; :meth:`Tracer.layers` folds them into per-layer
totals, self times (a span minus its direct children) and call counts.
Leaving the ``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List


class Tracer:
    def __init__(self) -> None:
        #: one ``[layer, parent index or -1, start, end]`` per call
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, layer: str, original: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()

        return traced

    def patch(self, owner: object, name: str, replacement: Callable) -> None:
        """Set ``owner.name``, to be restored when the tracer closes."""
        original = vars(owner)[name]
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def method(self, cls: type, name: str, layer: str) -> None:
        """Trace ``cls().name`` where it resolves: on the defining class."""
        owner = next(k for k in cls.__mro__ if name in vars(k))
        self.patch(owner, name, self._wrap(layer, vars(owner)[name]))

    def function(self, original: Callable, layer: str) -> int:
        """Trace ``original`` in every loaded ``repro`` module that binds it.

        Returns how many modules were patched, so a caller can insist the
        seam still exists.
        """
        traced = self._wrap(layer, original)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, traced)
                    patched += 1
        return patched

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def first_start(self, layer: str) -> float:
        """Start time of the first span of ``layer``."""
        return next(s[2] for s in self.spans if s[0] == layer)

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no traced parent."""
        return sum(s[3] - s[2] for s in self.spans if s[1] < 0)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``total_s``, ``self_s`` and ``calls``."""
        child_s = [0.0] * len(self.spans)
        for _layer, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _parent, start, end), children in zip(self.spans, child_s):
            row = out.setdefault(layer, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - children
            row["calls"] += 1
        return out
