"""In-memory spans around the simulator's public functions.

A ``Tracer`` swaps a function for a wrapper that records one span per call:
name, start, end and the index of the enclosing span (-1 at top level).
``experiment.py`` and ``federation.py`` import several functions by name, so
a function is replaced in every loaded ``fedfa`` module that holds it, not
only where it is defined; a method is replaced on its class. Leaving the
``with`` block puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Every time the benchmark reports is CPU time of this process. BLAS runs
# one thread, so on a core of its own this equals wall time; on a shared VM
# it leaves out the stretches when the host runs someone else (steal), which
# inflated wall time by up to 40 % for minutes at a time.
CLOCK = time.process_time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """fn with a span per call; on_return(args, kwargs, result) runs after
        the span closes."""
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def span(self, target: str, on_return=None) -> None:
        """Trace ``target``, written 'module.function' or
        'module.Class.method' relative to the fedfa package; the span takes
        that name."""
        self.replace(target, lambda fn: self.wrap(target, fn, on_return))

    def replace(self, target: str, make) -> None:
        """Substitute make(original) for ``target`` wherever it is looked up."""
        module, _, attr = target.partition(".")
        mod = importlib.import_module(f"fedfa.{module}")
        owner, _, leaf = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            orig = cls.__dict__[leaf]
            self._set(cls, leaf, make(orig))
            return
        orig = getattr(mod, leaf)
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "fedfa" or name.startswith("fedfa.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, new)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def phases(spans, roots: dict[str, str]) -> list[str | None]:
    """Label each span with the phase of its nearest ancestor named in roots
    (a span named in roots labels itself); None outside every root."""
    out: list[str | None] = []
    for name, _, _, parent in spans:
        label = roots.get(name)
        if label is None and parent >= 0:
            label = out[parent]
        out.append(label)
    return out
