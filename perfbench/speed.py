"""How fast the machine runs right now, and times scaled to a fixed speed.

On a shared host the same code runs up to 1.9 times slower for seconds to
minutes at a time, as neighbours compete for the core and its caches.
Timings taken in different phases are not comparable, and repetition
within a 30-second run does not average the phases out.  So each
interpreter times a fixed reference kernel while it measures: four times a
second from a timer signal during a long interval, and between calls
during a series of short ones, so that no short call is interrupted.
Every timed interval is then scaled,
piece by piece, to the kernel's nominal speed: ``raw * NOMINAL_MS /
kernel_ms`` with the kernel time measured around that piece.  The kernel's
own runs are cut out of the intervals.  Raw times are recorded beside the
scaled ones.

The kernel mixes the kinds of work the package does per point and per
construction step: frozen-dataclass churn, masked fancy-index gate updates
on a 10-qubit state, a loop of 2-element complex arithmetic and a small
least-squares solve.  It imports nothing from pqcapprox, so a change to the
package never changes the kernel.
"""

from __future__ import annotations

import bisect
import dataclasses
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Kernel time on the reference machine (2 vCPU Xeon, see README) in its
# fast phase; it only fixes the scale of the scaled times.
NOMINAL_MS = 2.75
INTERVAL_S = 0.25  # time between kernel runs while sampling
NEAREST = 3  # samples whose median gives the speed at a moment

_WIDTH = 10
_IDX = np.arange(2**_WIDTH)


@dataclasses.dataclass(frozen=True)
class _Op:
    target: int
    angle: float


def kernel() -> float:
    """Run the kernel once; return its wall time in ms."""
    t0 = perf_counter()
    ops = [_Op(k % _WIDTH, 0.1 * k) for k in range(40)]
    ops = [dataclasses.replace(op, target=(op.target + 3) % _WIDTH) for op in ops]
    amps = np.zeros(2**_WIDTH, dtype=complex)
    amps[0] = 1.0
    for op in ops:
        bit = 1 << (_WIDTH - 1 - op.target)
        i0 = _IDX[(_IDX & bit) == 0]
        i1 = i0 | bit
        a0, a1 = amps[i0], amps[i1]
        c, s = np.cos(op.angle / 2.0), np.sin(op.angle / 2.0)
        amps = amps.copy()
        amps[i0] = c * a0 - 1j * s * a1
        amps[i1] = -1j * s * a0 + c * a1
    row = np.full((1, 2), 1.0 / np.sqrt(2.0), dtype=complex)
    xs = np.array([0.3])
    sx = np.sqrt(1.0 - xs * xs)
    for k in range(100):
        r0 = row[:, 0] * xs + row[:, 1] * (1j * sx)
        r1 = row[:, 0] * (1j * sx) + row[:, 1] * xs
        row = np.stack([r0 * np.exp(-0.5j * k), r1 * np.exp(0.5j * k)], axis=1)
    mat = np.cos(np.outer(np.arange(60), np.arange(40)) * 0.01) + np.eye(60, 40)
    np.linalg.lstsq(mat, np.ones(60), rcond=None)
    return (perf_counter() - t0) * 1e3


class Sampler:
    """Kernel times of one process, ``(start, end, kernel_ms)`` in ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            if self._busy:  # a timer signal arrived while the kernel ran
                return
            self._busy = True
            t0 = perf_counter()
            ms = kernel()
            self.samples.append((t0, perf_counter(), ms))
            self._busy = False

    @contextmanager
    def every(self, interval_s: float = INTERVAL_S):
        """Sample from SIGALRM every ``interval_s`` (main thread only)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_ms_at(self, t: float) -> float:
        """Median kernel time of the samples nearest to moment ``t``."""
        mids = [(s + e) / 2.0 for s, e, _ in self.samples]
        i = bisect.bisect_left(mids, t)
        lo = max(0, min(i - NEAREST // 2, len(mids) - NEAREST))
        return statistics.median(ms for _, _, ms in self.samples[lo:lo + NEAREST])

    def scaled(self, a: float, b: float) -> float:
        """Seconds between ``a`` and ``b``, kernel runs cut out, scaled to nominal speed."""
        total = 0.0
        cur = a
        starts = [s for s, _, _ in self.samples]
        for s, e, _ in self.samples[max(0, bisect.bisect_left(starts, a) - 1):]:
            if s >= b:
                break
            if e <= cur:
                continue
            if s > cur:
                total += (s - cur) * NOMINAL_MS / self.kernel_ms_at((cur + s) / 2.0)
            cur = e
        if b > cur:
            total += (b - cur) * NOMINAL_MS / self.kernel_ms_at((cur + b) / 2.0)
        return total
