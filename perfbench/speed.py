"""Request times adjusted for the speed of a shared machine.

On the 2-core VM this benchmark was built on, the same request runs up to
1.6 times slower from one minute to the next, and a slow spell can last a
whole run. A fixed probe of about 2 ms tracks those spells when it runs while
the request runs: a SIGALRM handler runs it every SAMPLE_S in the benchmark's
own thread, between the program's bytecodes, so it sees the machine as the
request does. A probe timed only before and after a multi-second request
does not: the slow spells come and go within the request. The probe is the
benchmark's own numpy/scipy code, so no change to vortexlab moves it.

A request's adjusted time is its wall time, less the time the handler took
inside it, times the mean of REF_PROBE_S / probe time over the samples taken
while it ran: the time the request would take on a machine where the probe
takes REF_PROBE_S. A request too short to hold MIN_SAMPLES samples uses the
MIN_SAMPLES samples nearest to it. Over 14 back-to-back phase sweeps on that
box, the standard deviation of log time was 0.195 in wall time and 0.015
adjusted.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

REF_PROBE_S = 0.002
SAMPLE_S = 0.1             # sampling period while requests run
MIN_SAMPLES = 6
BURST = 3                  # samples on each side of a set-up run


class SpeedClock:
    def __init__(self):
        # (start, probe seconds, handler seconds), in time order
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._a = np.linspace(1.0, 2.0, 700)
        self._ab = np.tile(np.array([[-1.0], [-1.0], [6.0], [-1.0], [-1.0]]),
                           1600)
        self._x = np.linspace(0.0, 1.0, 1600)

    def _probe(self) -> float:
        """A scalar loop like the inertia counts and banded solves like the
        Newton steps."""
        a, ab, x = self._a, self._ab, self._x
        t0 = time.perf_counter()
        d = 1.0
        for j in range(1, len(a)):
            d = a[j] - a[j - 1] ** 2 / d
        for _ in range(6):
            y = solve_banded((2, 2), ab, np.sin(x) * x ** 2 + np.cumsum(x))
            x = 0.5 * (x + np.abs(y) / (1.0 + np.max(np.abs(y))))
        return time.perf_counter() - t0

    def sample(self, *_signal) -> None:
        if self._busy:            # a signal that arrives inside the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        d = self._probe()
        self.samples.append((t0, d, time.perf_counter() - t0))
        self._busy = False

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def adjust(self, start: float, seconds: float) -> float:
        """Adjusted time of a request that started at `start` and took
        `seconds` of wall time."""
        starts = [s[0] for s in self.samples]
        i = bisect.bisect_left(starts, start)
        j = bisect.bisect_left(starts, start + seconds)
        inside = self.samples[i:j]
        net = seconds - sum(h for _, _, h in inside)
        near = inside
        if len(near) < MIN_SAMPLES:
            mid = start + 0.5 * seconds
            window = self.samples[max(0, i - MIN_SAMPLES):j + MIN_SAMPLES]
            near = sorted(window, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        return net * statistics.fmean(REF_PROBE_S / d for _, d, _ in near)
