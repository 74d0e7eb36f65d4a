"""Host-speed calibration for the pipeline benchmark.

On a shared virtual machine the same code runs at very different
speeds from one minute to the next: neighbours on the physical host
take its cores, caches and memory bandwidth in bursts of seconds to
minutes, so a wall time measures the host as much as the program.  The
*yardstick* is a fixed piece of work, defined here and never in the
program, that mixes what the workloads spend their time on: small
Python objects, attribute access, dict lookups, small-array numpy calls
and a sort of a few hundred KiB.  Timed right before and right after a
step of a workload, it tells how fast the host was while the step ran.

A :class:`Stopwatch` runs the yardstick after every step of a unit and
scales each step's wall time by ``NOMINAL_S`` over the mean of the two
yardstick times around it: the step's time on a host where the
yardstick takes ``NOMINAL_S``.  The program never runs during a
yardstick and the yardstick never runs during a step, so a change to
the program moves the calibrated time exactly as it moves the wall
time on a steady host.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

#: Yardstick seconds on a quiet host: the machine the baseline was
#: taken on (2-vCPU Xeon VM, Python 3.11, numpy 2) at its fastest.
#: Only a scale: calibrated times read like wall times on that host.
NOMINAL_S = 0.038

#: Work in one yardstick run (38 ms on a quiet host, 50-60 ms on a busy one).
ROUNDS = 2_400


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_SMALL: List[np.ndarray] = [
    np.random.default_rng(i).random(64) for i in range(16)
]
_LARGE = np.random.default_rng(16).random(50_000)


def yardstick() -> float:
    """Seconds this process takes for the fixed yardstick work.

    The garbage collector is off meanwhile, so the program's heap (a
    collection would walk it) never reaches the yardstick's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0.0
        table = {}
        for i in range(ROUNDS):
            pairs = [_Pair(j, i) for j in range(24)]
            total += sum(p.a * p.b for p in pairs)
            table[i % 97] = pairs[i % 24]
            total += float(np.mean(_SMALL[i % 16]))
            if i % 40 == 0:
                total += float(np.sort(_LARGE)[7])
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Wall and calibrated seconds of a unit's steps.

    ``with watch.step():`` times one step; with ``calibrate`` the
    yardstick runs once before the first step and once after each step,
    outside the timed region.  Without it (traced runs) only wall time
    is kept and ``calibrated`` stays 0.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.wall = 0.0
        self.calibrated = 0.0
        self._before = yardstick() if calibrate else 0.0

    @contextmanager
    def step(self) -> Iterator[None]:
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        self.wall += wall
        if self.calibrate:
            after = yardstick()
            self.calibrated += wall * 2 * NOMINAL_S / (self._before + after)
            self._before = after
