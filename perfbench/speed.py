"""Machine-speed probe: a fixed reference loop, timed while a pass runs.

The 2-vCPU VM this benchmark was tuned on shares its host, and its speed
changes by up to 2x within minutes.  A pure-Python loop of Fraction
arithmetic and dict updates, the operations flipdyn spends its time on,
slows down with it.  Over ten runs of exact-sweep, scaling by this loop
cut the IQR/median of the pass time from 0.38 to 0.04, and over ten runs
of lp-exact from 0.15 to 0.06.  Reported times are therefore scaled to a
machine on which the loop takes REF_S:

    scaled = (wall - probe pauses) * REF_S / mean(loop times sampled meanwhile)

The loop is sampled at the start and end of every timed interval, at
explicit `sample()` calls, and, when a period is given, from a SIGALRM
timer; the timer is only for single-process work, since in a process that
waits on a pool the loop would compete with the workers for the CPUs.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REF_N = 1500
# Nominal loop time: its median on the tuning VM (Intel Xeon, 2 vCPUs,
# Python 3.11), so that scaled seconds read close to that VM's seconds.
REF_S = 0.0065


def reference_loop() -> float:
    """Seconds taken by a fixed amount of Fraction and dict work."""
    t0 = time.perf_counter()
    d = {}
    for i in range(REF_N):
        x = Fraction(i % 97 + 1, i % 89 + 3) + Fraction(i % 13 + 1, 7)
        d[(i % 37, x.denominator % 5)] = x
    return time.perf_counter() - t0


@dataclass
class Timing:
    raw: float = 0.0
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


class Probe:
    def __init__(self, period: float | None = None) -> None:
        self.period = period
        self.starts: list[float] = []
        self.loops: list[float] = []
        self._armed = False

    def sample(self) -> None:
        start = time.perf_counter()
        self.loops.append(reference_loop())
        self.starts.append(start)

    def factor(self, first: int = 0) -> float:
        """REF_S over the mean loop time of the samples from `first` on."""
        return REF_S / statistics.fmean(self.loops[first:])

    @contextlib.contextmanager
    def timed(self):
        """Time the block; on exit the Timing holds its wall net of probe
        pauses (raw) and the speed factor REF_S / mean loop time."""
        timing = Timing()
        first = len(self.loops)
        self.sample()
        with self._timer():
            t0 = time.perf_counter()
            yield timing
            t1 = time.perf_counter()
        self.sample()
        paused = sum(dt for s, dt in zip(self.starts[first:], self.loops[first:])
                     if t0 <= s < t1)
        timing.raw = t1 - t0 - paused
        timing.factor = self.factor(first)

    @contextlib.contextmanager
    def _timer(self):
        """Sample every `period` seconds; nested intervals share the timer.
        The timer is one-shot and re-armed after each sample, so samples
        never nest."""
        if not self.period or self._armed:
            yield
            return

        def tick(signum, frame):
            self.sample()
            if self._armed:
                signal.setitimer(signal.ITIMER_REAL, self.period)

        old = signal.signal(signal.SIGALRM, tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
