"""Timing scaled to a reference machine speed.

The host's CPU speed varies by up to 2x over periods of half a second to a
few seconds, because other tenants share the cores. Raw wall time of the
same work then spreads too widely between runs to bound a regression: in
``baseline.json`` the quartile spread of the wall-time p50s reaches 36%
where the scaled p50s stay within 4%. The clock cancels most of that
drift. When a timed operation starts and at least ``PERIOD_S`` has passed
since the last sample, it first runs a fixed reference loop and records how
long it took, so samples are taken between operations and never inside
one. An interval that lasted a period or more but held fewer than
``LOOKBACK`` samples is followed by enough samples to make up the number.
An interval is scaled by ``REFERENCE_S`` over the median duration of the
reference loop just before, in and just after the interval, and the loop's
own time is left out of every interval that encloses it. A scaled time is what
the interval would have taken on a machine where the reference loop takes
``REFERENCE_S``; on a quiet core of a 2-vCPU x86-64 host with CPython
3.11.7 the loop takes about that long, so scaled times are close to wall
time there. Every interval is also read as wall time, and the benchmark
reports both.
"""

from __future__ import annotations

import hashlib
import statistics
import time

PERIOD_S = 0.02
REFERENCE_S = 200e-6
#: Reference-loop samples before an interval that count toward it; also
#: the fewest samples in and after an interval of a period or more.
LOOKBACK = 8


def _reference_work() -> int:
    """Fixed work mixing what the program does: SHA-1, ints, a set."""
    seen = set()
    digest = bytes(20)
    for i in range(200):
        digest = hashlib.sha1(digest + i.to_bytes(4, "big")).digest()
        value = int.from_bytes(digest, "big")
        seen.add((value >> 7) ^ i)
    return len(seen)


class SpeedClock:
    """Interval timer that reads time scaled to reference speed and wall time."""

    def __init__(self):
        self.costs: list[float] = []
        self.spent = 0.0   # reference-loop time so far
        self._due = 0.0
        for _ in range(LOOKBACK):
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        self.costs.append(end - start)
        self.spent += end - start
        self._due = end + PERIOD_S

    def mark(self) -> tuple[float, float, int]:
        """Start an interval, after a speed sample if one is due."""
        if time.perf_counter() >= self._due:
            self._sample()
        return time.perf_counter(), self.spent, len(self.costs)

    def elapsed(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """Scaled and wall seconds since ``mark``, without reference-loop time."""
        start, spent, index = mark
        wall = time.perf_counter() - start - (self.spent - spent)
        if wall >= PERIOD_S:
            while len(self.costs) - index < LOOKBACK:
                self._sample()
        window = self.costs[max(0, index - LOOKBACK):]
        return wall * REFERENCE_S / statistics.median(window), wall

    def factor(self, since: int = 0) -> float:
        """Median scale from sample ``since`` on: wall time is about scaled / factor."""
        return REFERENCE_S / statistics.median(self.costs[since:])
