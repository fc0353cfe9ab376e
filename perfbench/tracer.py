"""Layer tracing for the traced benchmark run.

The tracer replaces functions at the names their callers look up (module
globals, class attributes) with wrappers that record spans, and restores
them afterwards. Spans are aggregated in memory per layer name: calls,
total time and self time, where self time is a span's duration minus the
time of the spans it caused. Counts are attributed to the operation the
harness is running (one honest session, one adversarial event, one
scenario), so ratios such as hashes per honest session are measured where
the work happens.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class CountingHashlib:
    """Stand-in for the ``hashlib`` module that counts ``sha1`` calls."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def sha1(self, data=b""):
        self._tracer.op["closure.sha1"] += 1
        return hashlib.sha1(data)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.op: Counter = Counter()       # counts of the running operation
        self.totals: Counter = Counter()   # counts of the finished operations
        self._children: list[float] = []   # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> Counter:
        """Start counting a new operation; the last one joins the totals."""
        self.totals.update(self.op)
        self.op = Counter()
        return self.op

    # -- patching ----------------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def timed(self, name: str, fn):
        """A wrapper of ``fn`` that records each call as a span ``name``."""
        stats = self.spans.setdefault(name, SpanStats())
        children = self._children
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.op[name] += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def span(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        self.replace(owner, attr, self.timed(name, getattr(owner, attr)))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.op[name] += 1
            return fn(*args, **kwargs)

        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------------

    def mean_us(self, name: str) -> float:
        stats = self.spans.get(name)
        return 1e6 * stats.total / stats.calls if stats and stats.calls else 0.0

    def self_us(self, name: str) -> float:
        stats = self.spans.get(name)
        return 1e6 * stats.self_time / stats.calls if stats and stats.calls else 0.0

    def total_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total if stats else 0.0

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats else 0
