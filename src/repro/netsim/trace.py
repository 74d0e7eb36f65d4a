"""Time-varying link capacity traces.

Real access links are not constant-rate: cellular capacity fluctuates
with channel quality and cell load, WiFi with contention, and some base
stations / APs apply traffic shaping with clearly periodic patterns
(§5.3 attributes the largest Swiftest-vs-BTS-APP deviations to exactly
these effects).  A :class:`CapacityTrace` maps simulated time to the
instantaneous capacity of a link in Mbps.

All stochastic traces are *frozen at construction*: they pre-draw their
randomness from an explicit :class:`numpy.random.Generator` so that a
trace evaluated twice at the same time returns the same capacity, which
discrete-event simulation requires.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# scipy.signal costs ~75 MiB of RSS to import, so it is resolved
# lazily on the first trace construction rather than at module import
# (out-of-core pipelines that never build a trace keep the memory).
_lfilter = None


def _resolve_lfilter():
    """scipy.signal.lfilter, imported on first use."""
    global _lfilter
    if _lfilter is None:
        from scipy.signal import lfilter

        _lfilter = lfilter
    return _lfilter


class CapacityTrace:
    """Base class: constant capacity unless overridden."""

    def __init__(self, base_mbps: float):
        if base_mbps <= 0:
            raise ValueError(f"capacity must be positive, got {base_mbps}")
        self.base_mbps = float(base_mbps)

    def capacity_at(self, time_s: float) -> float:
        """Instantaneous capacity in Mbps at simulated time ``time_s``."""
        return self.base_mbps

    def capacities_at(self, times_s) -> np.ndarray:
        """Capacities at an array of times — the batch counterpart of
        :meth:`capacity_at`, byte-identical element by element.

        The base implementation just loops; traces with a vectorizable
        lookup (:class:`FluctuatingTrace`) override it, which is what
        makes :meth:`mean_capacity` cheap on the campaign hot path.
        """
        return np.array(
            [self.capacity_at(t) for t in times_s], dtype=np.float64
        )

    def mean_capacity(self, start_s: float, end_s: float, step_s: float = 0.05) -> float:
        """Average capacity over ``[start_s, end_s)`` sampled every
        ``step_s`` seconds.  Used by tests and estimator ground truth."""
        if end_s <= start_s:
            raise ValueError("end must follow start")
        times = np.arange(start_s, end_s, step_s)
        return float(np.mean(self.capacities_at(times)))


class ConstantTrace(CapacityTrace):
    """A link whose capacity never changes."""


class FluctuatingTrace(CapacityTrace):
    """Mean-reverting multiplicative fluctuation around a base capacity.

    The deviation follows a discretised Ornstein-Uhlenbeck process
    sampled on a fixed grid, linearly interpolated in between.  This
    produces the smooth, bursty variation seen on wireless links without
    ever letting capacity collapse to zero.

    Parameters
    ----------
    base_mbps:
        Long-run mean capacity.
    sigma:
        Relative standard deviation of the fluctuation (0.1 = ±10%-ish).
    tau_s:
        Mean-reversion time constant; smaller = faster wiggle.
    duration_s:
        Length of the pre-drawn trace; queries beyond it wrap around.
    rng:
        Randomness source.  Required — there is no hidden global seed.
    """

    GRID_STEP_S = 0.05

    def __init__(
        self,
        base_mbps: float,
        sigma: float,
        tau_s: float,
        duration_s: float,
        rng: np.random.Generator,
        floor_fraction: float = 0.05,
    ):
        super().__init__(base_mbps)
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        if tau_s <= 0:
            raise ValueError(f"tau_s must be positive, got {tau_s}")
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        self.sigma = float(sigma)
        self.tau_s = float(tau_s)
        self.duration_s = float(duration_s)
        self._floor = floor_fraction * base_mbps

        n = max(2, int(math.ceil(duration_s / self.GRID_STEP_S)) + 1)
        # Exact OU discretisation: x_{k+1} = a x_k + noise, stationary
        # variance sigma^2.
        a = math.exp(-self.GRID_STEP_S / tau_s)
        noise_scale = sigma * math.sqrt(max(0.0, 1.0 - a * a))
        x = np.empty(n)
        x[0] = rng.normal(0.0, sigma) if sigma > 0 else 0.0
        shocks = rng.normal(0.0, 1.0, size=n - 1)
        # The AR(1) recursion x[k+1] = a x[k] + noise_scale shocks[k]
        # is an IIR filter; lfilter's direct-form evaluation performs
        # the loop's multiply-add sequence, so the grid is bit-for-bit
        # what the loop would compute — just computed in C.
        x[1:] = _resolve_lfilter()(
            [noise_scale], [1.0, -a], shocks, zi=np.array([a * x[0]])
        )[0]
        self._grid = np.maximum(base_mbps * (1.0 + x), self._floor)

    def capacity_at(self, time_s: float) -> float:
        t = time_s % self.duration_s
        pos = t / self.GRID_STEP_S
        lo = int(pos)
        hi = min(lo + 1, len(self._grid) - 1)
        frac = pos - lo
        return float(self._grid[lo] * (1.0 - frac) + self._grid[hi] * frac)

    def capacities_at(self, times_s) -> np.ndarray:
        """Batch grid lookup: the same modulo / interpolation arithmetic
        as :meth:`capacity_at`, evaluated elementwise over the whole
        array — bit-identical lane by lane."""
        t = np.asarray(times_s, dtype=np.float64) % self.duration_s
        pos = t / self.GRID_STEP_S
        lo = pos.astype(np.int64)
        hi = np.minimum(lo + 1, len(self._grid) - 1)
        frac = pos - lo
        return self._grid[lo] * (1.0 - frac) + self._grid[hi] * frac


class ShapedTrace(CapacityTrace):
    """Traffic shaping: capacity alternates between full rate and a
    throttled rate on a fixed period.

    §5.3 observes that a small (0.7%) fraction of tests deviate >30%
    because base stations or WiFi APs shape traffic with "clear
    patterns"; this trace reproduces that failure mode for the harness.
    """

    def __init__(
        self,
        base_mbps: float,
        throttled_mbps: float,
        period_s: float,
        duty_cycle: float = 0.5,
        phase_s: float = 0.0,
    ):
        super().__init__(base_mbps)
        if not 0 < duty_cycle <= 1:
            raise ValueError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        if throttled_mbps <= 0 or throttled_mbps > base_mbps:
            raise ValueError(
                f"throttled rate must be in (0, base], got {throttled_mbps}"
            )
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.throttled_mbps = float(throttled_mbps)
        self.period_s = float(period_s)
        self.duty_cycle = float(duty_cycle)
        self.phase_s = float(phase_s)

    def capacity_at(self, time_s: float) -> float:
        offset = (time_s + self.phase_s) % self.period_s
        if offset < self.duty_cycle * self.period_s:
            return self.base_mbps
        return self.throttled_mbps


class SteppedTrace(CapacityTrace):
    """Piecewise-constant capacity given explicit (start_time, capacity)
    breakpoints.  Useful for scripted scenarios in tests."""

    def __init__(self, steps: Sequence[tuple]):
        if not steps:
            raise ValueError("at least one step is required")
        times = [t for t, _ in steps]
        if times != sorted(times):
            raise ValueError("step times must be non-decreasing")
        if times[0] != 0.0:
            raise ValueError("first step must start at time 0")
        caps = [c for _, c in steps]
        if any(c <= 0 for c in caps):
            raise ValueError("capacities must be positive")
        super().__init__(caps[0])
        self._times = list(times)
        self._caps = [float(c) for c in caps]

    def capacity_at(self, time_s: float) -> float:
        # Linear scan is fine: scripted traces have a handful of steps.
        capacity = self._caps[0]
        for t, c in zip(self._times, self._caps):
            if time_s >= t:
                capacity = c
            else:
                break
        return capacity
