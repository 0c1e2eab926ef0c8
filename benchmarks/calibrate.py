"""Calibrated time: wall time rescaled by a fixed loop timed around it.

The benchmark shares its CPUs with other tenants, whose load slows every
instruction by up to a third for seconds at a time.  The benchmark times a
fixed pure-Python loop that does not touch the library (a scan of 4-tuples
with the circular comparisons the library's own scans make) between
requests, no more often than every ``MIN_GAP_S``, and every ``MIN_GAP_S``
from a second thread during requests that wait for child processes or run
for seconds.  (That thread takes the interpreter lock for a few ms per
sample, which slows an in-process request by a steady 2 to 3 per cent.)
A sample is the least thread CPU time of ``REPEATS`` loops, so neither an
interrupt nor a wait for the CPU counts.  An interval is rescaled by
``REF_S / c``, where ``c`` is the mean of the samples taken during it and
of the ones just before and just after it: a calibrated time reads as if
the loop had taken exactly ``REF_S``.  A change to the library moves
calibrated times as it moves wall times.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from contextlib import contextmanager

REF_S = 0.0025  # about the loop's duration on a 2-vCPU Xeon VM, CPython 3.11
MIN_GAP_S = 0.25
TABLE_SIZE = 15_000
REPEATS = 3


class Calibration:
    """Loop samples taken along a run, and the intervals they rescale."""

    def __init__(self) -> None:
        rng = random.Random(20_220_115)
        self.table = [tuple(rng.randrange(50) for _ in range(4)) for _ in range(TABLE_SIZE)]
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.durations: list[float] = []

    def _loop(self) -> int:
        hits = 0
        for a, b, c, d in self.table:
            if (a > b) + (b > c) + (c > d) + (d > a) >= 2:
                hits += 1
        return hits

    def sample(self, force: bool = False) -> None:
        """Take a sample, unless the last one is under MIN_GAP_S old."""
        if not force and self.ends and time.perf_counter() - self.ends[-1] < MIN_GAP_S:
            return
        durations = []
        for _ in range(REPEATS):
            t0 = time.thread_time()
            self._loop()
            durations.append(time.thread_time() - t0)
        self.ends.append(time.perf_counter())
        self.durations.append(min(durations))

    @contextmanager
    def alongside(self):
        """Sample from a second thread while this one runs a request."""
        stop = threading.Event()

        def sampler() -> None:
            while not stop.wait(MIN_GAP_S):
                self.sample(force=True)

        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in calibrated seconds.

        Needs a sample that ended by ``start`` and one taken after ``end``;
        callers sample around every timed interval.
        """
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        if before < 0 or after >= len(self.ends):
            raise ValueError("interval is not bracketed by calibration samples")
        window = self.durations[before : after + 1]
        return (end - start) * REF_S * len(window) / sum(window)
