"""Machine-speed calibration of timed runs.

On a shared host the same code does not always run at the same speed: the
2-vCPU machine the baseline was recorded on switches, every few seconds to
minutes, between a fast state and one about 2x slower, and a fixed 40 ms
kernel showed the same swing in wall and CPU time alike.  So every timed
run is watched by a Speedometer, which times a short fixed kernel before,
during and after the run, and the run's time is reported in reference
seconds: wall seconds times the run's mean speed, where a kernel that takes
REFERENCE_S has speed 1.  The kernel lives here, outside the program, so a
change to the program moves the reported times and a change in machine
load mostly does not.  Raw wall times are printed and recorded alongside.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel seconds at speed 1: the kernel's time on the baseline machine in its
# fast state, so reference seconds read close to wall seconds there.
REFERENCE_S = 0.00125
# Kernel period during a run.  Each tick costs about REFERENCE_S, so the
# watched run is slowed by under 1%, alike on every commit.
TICK_S = 0.2

_RNG = np.random.default_rng(0)
_INCIDENCE = (_RNG.random((60, 10)) < 0.3).astype(float)
_CAPACITY = _RNG.uniform(10.0, 110.0, 60)


def kernel_seconds() -> float:
    """Wall time of one fixed run of small-array price updates, the program's kind of work."""
    t0 = time.perf_counter()
    prices = np.ones(60)
    bids = np.ones(10)
    for _ in range(100):
        mu = _INCIDENCE.T @ prices
        x = np.minimum(np.where(mu > 0.0, bids / np.where(mu > 0.0, mu, 1.0), 0.0), 5.0)
        prices = np.maximum(0.0, prices + 1e-3 * (_INCIDENCE @ x - _CAPACITY))
        bids = np.where(mu > 0.0, np.sqrt(bids + 1.0), bids)
    return time.perf_counter() - t0


class Speedometer:
    """Mean machine speed over a `with` block, in reference seconds per wall second.

    The kernel runs on entry, on exit, and every TICK_S in between from a
    SIGALRM handler (Python runs it in the main thread between bytecodes).
    Speeds, not kernel times, are averaged: the block's work in reference
    seconds is the time integral of the speed.
    """

    def __enter__(self) -> "Speedometer":
        self.speeds = [REFERENCE_S / kernel_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.speeds.append(REFERENCE_S / kernel_seconds())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(REFERENCE_S / kernel_seconds())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)
