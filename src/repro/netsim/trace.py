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


#: Spacing of a :class:`FluctuatingTrace`'s pre-drawn grid.
GRID_STEP_S = 0.05


def positive_capacity(base_mbps: float) -> float:
    """``base_mbps`` as a float; the ``ValueError`` every trace raises
    for a capacity that is not positive and finite (NaN, a blank CSV
    cell, included)."""
    if not (base_mbps > 0 and math.isfinite(base_mbps)):
        raise ValueError(
            f"capacity must be positive and finite, got {base_mbps}"
        )
    return float(base_mbps)


def sample_times(
    start_s: float, end_s: float, step_s: float = 0.05
) -> np.ndarray:
    """The times :meth:`CapacityTrace.mean_capacity` averages over."""
    if end_s <= start_s:
        raise ValueError("end must follow start")
    return np.arange(start_s, end_s, step_s)


def grid_points(duration_s: float) -> int:
    """Points of an OU grid pre-drawn over ``duration_s``."""
    return max(2, int(math.ceil(duration_s / GRID_STEP_S)) + 1)


def ou_draws(rng: np.random.Generator, sigma: float, n_shocks: int):
    """An OU grid's draws from ``rng``, in stream order: the stationary
    start ``x0``, then ``n_shocks`` unit shocks.

    ``Generator.normal`` fills its output sequentially, so a shorter
    ``n_shocks`` draws a prefix of a longer one's shocks.
    """
    x0 = rng.normal(0.0, sigma) if sigma > 0 else 0.0
    return x0, rng.normal(0.0, 1.0, size=n_shocks)


def ou_grids(
    base_mbps: np.ndarray,
    sigma: np.ndarray,
    x0: np.ndarray,
    shocks: np.ndarray,
    tau_s: float,
    floor_fraction: float = 0.05,
) -> np.ndarray:
    """Capacity grids of OU fluctuations, one row per trace.

    Row ``r`` runs the discretised Ornstein-Uhlenbeck recursion
    ``x[k+1] = a x[k] + noise_scale[r] shocks[r, k]`` from ``x0[r]``
    and floors ``base_mbps[r] (1 + x)`` at ``floor_fraction`` of the
    base.  Returns a ``(rows, shocks.shape[1] + 1)`` array.

    The recursion is an IIR filter; lfilter's direct-form evaluation
    performs the loop's multiply-add sequence lane by lane, so every
    row is bit-for-bit what the loop would compute, and the same
    whichever rows share the call.  lfilter is causal, so a prefix of
    the shocks gives a prefix of the grid.
    """
    base = np.asarray(base_mbps, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    # Exact OU discretisation: stationary variance sigma^2.
    a = math.exp(-GRID_STEP_S / tau_s)
    noise_scale = np.asarray(sigma, dtype=np.float64) * math.sqrt(
        max(0.0, 1.0 - a * a)
    )
    x = np.empty((base.size, shocks.shape[1] + 1))
    x[:, 0] = x0
    x[:, 1:] = _resolve_lfilter()(
        [1.0], [1.0, -a], noise_scale[:, None] * shocks, axis=1,
        zi=(a * x0)[:, None],
    )[0]
    floor = floor_fraction * base
    return np.maximum(base[:, None] * (1.0 + x), floor[:, None])


def grid_positions(times_s, duration_s: float, n_points: int):
    """Where ``times_s`` fall on an ``n_points`` grid that wraps every
    ``duration_s``: the points ``lo`` and ``hi`` around each time and
    its fraction of the way from one to the other."""
    t = np.asarray(times_s, dtype=np.float64) % duration_s
    pos = t / GRID_STEP_S
    lo = pos.astype(np.int64)
    hi = np.minimum(lo + 1, n_points - 1)
    return lo, hi, pos - lo


def interpolate(grids: np.ndarray, lo, hi, frac) -> np.ndarray:
    """Linear interpolation along the last axis of ``grids`` at
    :func:`grid_positions`."""
    return grids[..., lo] * (1.0 - frac) + grids[..., hi] * frac


class CapacityTrace:
    """Base class: constant capacity unless overridden."""

    def __init__(self, base_mbps: float):
        self.base_mbps = positive_capacity(base_mbps)

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
        times = sample_times(start_s, end_s, step_s)
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

    GRID_STEP_S = GRID_STEP_S

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

        x0, shocks = ou_draws(rng, sigma, grid_points(duration_s) - 1)
        self._grid = ou_grids(
            [self.base_mbps], [self.sigma], [x0], shocks[None, :],
            tau_s, floor_fraction,
        )[0]

    @property
    def grid(self) -> np.ndarray:
        """The pre-drawn capacities, one every :data:`GRID_STEP_S`
        from time 0; :meth:`capacity_at` interpolates between them."""
        return self._grid

    def capacity_at(self, time_s: float) -> float:
        t = time_s % self.duration_s
        pos = t / GRID_STEP_S
        lo = int(pos)
        hi = min(lo + 1, len(self._grid) - 1)
        frac = pos - lo
        return float(self._grid[lo] * (1.0 - frac) + self._grid[hi] * frac)

    def capacities_at(self, times_s) -> np.ndarray:
        """Batch grid lookup: the same modulo / interpolation arithmetic
        as :meth:`capacity_at`, evaluated elementwise over the whole
        array — bit-identical lane by lane."""
        lo, hi, frac = grid_positions(
            times_s, self.duration_s, len(self._grid)
        )
        return interpolate(self._grid, lo, hi, frac)


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
