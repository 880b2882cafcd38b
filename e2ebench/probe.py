"""A speed probe that puts pass times at a reference core speed.

On a shared host the same pass can take 1.6x longer from one minute to
the next. This process's CPU time grows with its wall time, so the
slowdown happens inside the virtual CPU. It also changes within seconds,
so a calibration loop run before and after a pass does not track it.

The probe runs inside the pass instead. Every ``INTERVAL_S`` of this
process's CPU time, a ``SIGPROF`` handler times a fixed dict loop
between two bytecodes of the program. Each stretch of wall time between
two samples is scaled by ``REFERENCE_S`` over the loop time measured at
its end, and the scaled stretches add up to ``reference_seconds``: the
time the same work would take at the reference speed. On the seed
revision this cut the spread of repeated report passes from 0.24 to
0.02 (IQR over median), where dividing by the mean loop time reached
0.05. The probe costs about 0.5% of a pass.

This module imports only ``signal`` and ``time``, so that a set-up
probe can load it without importing anything the program imports.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: How often, in seconds of this process's CPU time, the loop is timed.
INTERVAL_S = 0.01

#: The loop's time on an idle core of the machine the benchmark was
#: calibrated on (a 2.1 GHz Xeon KVM guest).
REFERENCE_S = 30e-6


class SpeedProbe:
    """Context manager timing its body in wall and reference seconds."""

    def __init__(self) -> None:
        # (when the loop ended, how long it took) per sample.
        self._samples: list[tuple[float, float]] = []
        self._start = self._end = 0.0

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        table: dict[int, int] = {}
        for i in range(300):
            table[i & 31] = table.get(i & 31, 0) + i
        end = perf_counter()
        self._samples.append((end, end - start))

    def __enter__(self) -> "SpeedProbe":
        self._samples.clear()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._end = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def seconds(self) -> float:
        """Wall time of the body."""
        return self._end - self._start

    @property
    def reference_seconds(self) -> float:
        """The body's wall time at the reference speed."""
        if not self._samples:
            return self.seconds
        total, previous = 0.0, self._start
        for at, loop in self._samples:
            total += (at - previous) * REFERENCE_S / loop
            previous = at
        return total + (self._end - previous) * REFERENCE_S / self._samples[-1][1]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the body ran."""
        return self.seconds / self.reference_seconds
