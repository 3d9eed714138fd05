"""In-memory span tracer for the benchmark's traced runs.

The traced runs record spans around calls into the program's public
functions, from the benchmark's own files: nothing under ``src/`` is
edited. A wrapper notes each call's name, start, end and enclosing
span in flat arrays; nothing is written until the run ends, when
:meth:`Tracer.summary` reduces the spans to per-name totals.

A span's *self* time is its duration minus the time its direct child
spans cover. Every wrapped function is synchronous, so on one thread
spans nest strictly and a stack gives each span its parent, even on an
asyncio loop.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Spans and timestamped samples (counts, waits), kept in memory."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.marks: list[int] = []
        self.samples: dict[str, list[tuple[int, float]]] = defaultdict(list)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """*fn* recording one span per call (and *on_result* of its value)."""
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self._names):
            self._names.append(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self._start)
            self._name.append(ident)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._start.append(0)
            self._end.append(0)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._start[index] = start
                self._end[index] = end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def mark(self) -> None:
        """Note a phase boundary; :meth:`summary` can window on marks."""
        self.marks.append(time.perf_counter_ns())

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append((time.perf_counter_ns(), value))

    def summary(self, lo: int | None = None, hi: int | None = None) -> dict:
        """Per-name ``count``/``total_s``/``self_s`` of the spans, and the
        samples, that lie inside ``[lo, hi]`` (ns; ``None`` is open)."""
        lo = -(2**63) if lo is None else lo
        hi = 2**63 - 1 if hi is None else hi
        child = [0] * len(self._start)
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[index] - self._start[index]
        spans: dict[str, dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self._names
        }
        for index, ident in enumerate(self._name):
            start, end = self._start[index], self._end[index]
            if start < lo or end > hi:
                continue
            entry = spans[self._names[ident]]
            entry["count"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child[index]) / 1e9
        samples = {
            name: [value for stamp, value in values if lo <= stamp <= hi]
            for name, values in self.samples.items()
        }
        return {
            "spans": spans,
            "samples": samples,
        }


def patch_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every loaded ``repro`` module attribute that *is* *original*.

    Modules import the functions they call by name, so a wrapper only
    takes effect where each importing module's own binding is replaced.
    Returns how many bindings changed.
    """
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def wrap_everywhere(
    tracer: Tracer,
    name: str,
    fn: Callable,
    on_result: Callable[[Any], None] | None = None,
) -> None:
    """Wrap module-level function *fn* wherever ``repro`` imported it."""
    if patch_everywhere(fn, tracer.wrap(name, fn, on_result)) == 0:
        raise RuntimeError(f"no module binds {fn.__qualname__}")


def wrap_classmethod(tracer: Tracer, name: str, cls: type, attr: str) -> None:
    """Wrap the classmethod ``cls.attr`` in place."""
    func = vars(cls)[attr].__func__
    setattr(cls, attr, classmethod(tracer.wrap(name, func)))


def wrap_method(tracer: Tracer, name: str, cls: type, attr: str) -> None:
    """Wrap the plain method ``cls.attr`` in place."""
    setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))

