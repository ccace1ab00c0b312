"""Wall time scaled to a fixed machine speed.

The benchmark was tuned on a shared 2-core machine whose speed drifted by 2x
and more over seconds to minutes, for the benchmark's code and for any other
Python code alike. So a run samples the speed while it works: a timer signal
runs a fixed pure-Python probe, which runs no ``hybridparse`` code, every
``PROBE_EVERY_S`` seconds. A timed span's wall seconds, less the probes that
ran inside it, are multiplied by ``PROBE_REF_S`` over the median time of the
probes within ``NEAR_S`` of the span, to the power ``ELASTICITY``. On a
machine as fast as the tuning machine in a typical stretch the factor is
about 1, and a slow spell stretches the probe and the work, so the factor
takes most of it out.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

perf = time.perf_counter

# The probe's median time on the tuning machine in a typical stretch (one
# core of a shared 2-core x86-64 host, CPython 3.11).
PROBE_REF_S = 0.0033
PROBE_EVERY_S = 0.2
NEAR_S = 1.0
# How far the work's time follows the probe's: the slope of log time against
# log probe time, over ~1 s chunks of parsing and training on the tuning
# machine, was 0.62-0.77 on the workloads.
ELASTICITY = 0.7


def probe_work() -> int:
    """A fixed task of the same kind as parsing: tuples, strings, dict and
    set operations in an interpreted loop."""
    table: dict = {}
    for i in range(6000):
        key = (i % 61, str(i % 53))
        table[key] = table.get(key, 0) + i
    return len(set(table.values()))


class SteadyClock:
    """Probes from ``start`` to ``stop``; ``scaled`` converts spans timed
    in between. The probes run in the main thread, from a SIGALRM handler."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []

    def _probe(self, *_) -> None:
        # The collector stays off, so that the program's collections are
        # neither timed as probes nor left out of its spans.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        probe_work()
        t1 = perf()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def _arm(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._arm(PROBE_EVERY_S)

    def stop(self) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @contextmanager
    def paused(self):
        """No probes, for work done by another process, which a probe in
        this one would not delay."""
        self._arm(0)
        try:
            yield
        finally:
            self._arm(PROBE_EVERY_S)

    def scaled(self, spans) -> list:
        """Scaled seconds of (start, end) wall-time spans timed between
        ``start`` and ``stop``."""
        costs = [b - a for a, b in zip(self.starts, self.ends)]
        done = [0.0]
        for c in costs:
            done.append(done[-1] + c)
        out = []
        for start, end in spans:
            first = bisect.bisect_left(self.starts, start)
            after = bisect.bisect_right(self.ends, end)
            inside = done[after] - done[first] if after > first else 0.0
            lo = min(first - 1, bisect.bisect_left(self.ends, start - NEAR_S))
            hi = max(after + 1, bisect.bisect_right(self.ends, end + NEAR_S))
            speed = PROBE_REF_S / statistics.median(costs[lo:hi])
            out.append((end - start - inside) * speed**ELASTICITY)
        return out
