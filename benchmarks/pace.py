"""Machine-speed sampling, so wall times can be read at a reference speed.

On the shared 2-vCPU reference host the same work runs at two speeds about
2x apart that alternate every few seconds, so a raw 10-second run can read
anywhere between the two. A SIGALRM handler times a fixed
reference chunk every INTERVAL seconds of wall time; the chunk's speed at
time t estimates the machine's speed at t. `Pacer.seconds(a, b)` converts
the wall interval [a, b] into seconds at the speed where the chunk takes
REFERENCE_S, after taking out the time the chunks themselves used.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.05
REFERENCE_S = 0.3e-3       # typical chunk time on the reference 2-vCPU Xeon host
WINDOW = 0.5               # a short interval is read at the speed of +-WINDOW s


def chunk() -> float:
    """Small-array numpy calls from Python, the mix the autodiff tape makes."""
    a = np.arange(16.0)
    for _ in range(40):
        b = np.tanh(a * 0.5 + 1.0)
        a = b / (1.0 + float(b.sum()))
    return float(a[0])


class Pacer:
    def __init__(self):
        self.times: list[float] = []       # chunk start times
        self.costs: list[float] = []       # chunk durations
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        chunk()
        self.times.append(t)
        self.costs.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.times, a), bisect.bisect_right(self.times, b)

    def speed(self, a: float, b: float) -> float:
        """Mean machine speed over [a, b] relative to the reference."""
        lo, hi = self._range(a, b)
        if hi - lo < 3:
            mid = (a + b) / 2
            lo, hi = self._range(mid - WINDOW, mid + WINDOW)
        if hi <= lo:
            raise RuntimeError("no speed samples near the interval")
        return REFERENCE_S * float(np.mean(1.0 / np.asarray(self.costs[lo:hi])))

    def seconds(self, a: float, b: float) -> float:
        """Wall interval [a, b] as seconds at the reference speed."""
        lo, hi = self._range(a, b)
        busy = b - a - sum(self.costs[lo:hi])
        return busy * self.speed(a, b)
