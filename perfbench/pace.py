"""A yardstick for the machine's speed at the moment.

The reference machine shares its cores with other tenants, and the same code
runs up to 1.7 times faster or slower from one stretch of seconds to the
next. So the worker times a fixed piece of work, a "pace", after set-up and
between operations (at most every fifth of a second), and scales each
measured time by reference / pace, using the mean of the paces just before
and just after it. Reported times are then seconds on a machine that runs
the yardstick in its reference time; the raw times stay in the run report.
The yardstick is the benchmark's own code, so a change to gho moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACE_EVERY_S = 0.2

_POINTS = np.linspace(0.0, 1.0, 9)
_TABLE = np.linspace(0.0, 1.0, 64)
_WAVE = np.exp(1j * np.linspace(0.0, 40.0, 4096))
_ROW = np.linspace(0.0, 1.0, 1024)


def _small_work():
    """Interpreter arithmetic, small-array numpy calls and a few FFTs."""
    total = 0.0
    for i in range(4000):
        total += math.sin(i * 1e-3) * (i & 7)
    for i in range(150):
        total += float(np.sum(np.sin(_POINTS * 1.5 + i))) + int(np.searchsorted(_TABLE, 0.5))
    wave = _WAVE
    for _ in range(6):
        wave = np.fft.ifft(np.fft.fft(wave) * 1.0001)
    return total + float(wave[0].real)


def _large_work():
    """Whole-array numpy work on arrays larger than the caches."""
    wave = np.exp(1j * np.linspace(0.0, 50.0, 1 << 20))
    matrix = np.exp(1j * np.outer(_ROW, _ROW))
    return float(abs((matrix @ wave[:1024])[0]) + abs(np.fft.fft(wave[:1 << 18])[0]))


@dataclass(frozen=True)
class Yardstick:
    """A fixed piece of work and its time on the reference machine (2-core
    sandbox) at its usual speed."""

    work: Callable
    reference_s: float

    def measure(self):
        """Seconds the work takes now: the median of three timings."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def scale(self):
        return self.reference_s / self.measure()


# kernel-queries and packet-hops follow SMALL; verify's calls, dominated by
# large arrays, follow LARGE (on 54 verify calls the scatter of their times
# fell from 16 % to 9 % with LARGE, to 12 % with SMALL)
SMALL = Yardstick(_small_work, 0.0035)
LARGE = Yardstick(_large_work, 0.1)


class Pacer:
    """Paces taken between the operations of one batch."""

    def __init__(self, yardstick):
        self.yardstick = yardstick
        self.marks = []  # (index of the next op, pace)
        self._last = -math.inf

    def before(self, index):
        if time.perf_counter() - self._last >= PACE_EVERY_S:
            self.marks.append((index, self.yardstick.measure()))
            self._last = time.perf_counter()

    def scales(self, n_ops):
        """Reference over measured pace for each op, from the paces on either side."""
        self.marks.append((n_ops, self.yardstick.measure()))
        out = []
        k = 0
        for i in range(n_ops):
            while self.marks[k + 1][0] <= i:
                k += 1
            pace = 0.5 * (self.marks[k][1] + self.marks[k + 1][1])
            out.append(self.yardstick.reference_s / pace)
        return out

    @property
    def current(self):
        """Reference over the latest pace, for times recorded as they happen."""
        return self.yardstick.reference_s / self.marks[-1][1]
