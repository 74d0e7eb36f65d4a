"""Sample-convergence detection (§5.1).

Swiftest stops a test when the latest ten bandwidth samples converge:
the difference ratio between their maximum and minimum is ≤3%
(following FAST's design).  The final result is the mean of those ten
samples.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np

#: Samples that must agree for the test to stop.
WINDOW = 10
#: Max/min difference ratio regarded as converged.
THRESHOLD = 0.03


class ConvergenceDetector:
    """Sliding-window convergence check over bandwidth samples."""

    def __init__(self, window: int = WINDOW, threshold: float = THRESHOLD):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.window = window
        self.threshold = threshold
        self._samples: Deque[float] = deque(maxlen=window)

    def push(self, sample_mbps: float) -> None:
        """Record one bandwidth sample.

        Rejects NaN and ±inf explicitly: ``sample_mbps < 0`` is False
        for NaN, so without the finiteness check a NaN would slip into
        the window and poison every subsequent max/min comparison.
        """
        if not math.isfinite(sample_mbps):
            raise ValueError(f"samples must be finite, got {sample_mbps}")
        if sample_mbps < 0:
            raise ValueError(f"samples must be non-negative, got {sample_mbps}")
        self._samples.append(float(sample_mbps))

    def reset(self) -> None:
        """Forget accumulated samples (used when the probing rate
        changes — samples from different rate rungs must not be mixed
        when judging convergence)."""
        self._samples.clear()

    @property
    def count(self) -> int:
        return len(self._samples)

    def converged(self) -> bool:
        """True when a full window agrees within the threshold."""
        if len(self._samples) < self.window:
            return False
        top = max(self._samples)
        if top <= 0:
            return False
        return (top - min(self._samples)) / top <= self.threshold

    def value(self) -> Optional[float]:
        """Mean of the window when converged, else ``None``."""
        if not self.converged():
            return None
        return float(np.mean(self._samples))


class RollingConvergenceKernel:
    """The :class:`ConvergenceDetector` rewritten as a columnar kernel.

    Tracks the sliding windows of ``n`` live sessions at once — the
    unfinished sessions of a :class:`~repro.core.sessionbank.SessionBank`
    — in one ``(window, n)`` ring buffer.  Every live row pushes one
    sample at every step, so every row writes the same ring column, one
    position shared by the whole kernel; when sessions finish,
    :meth:`compact` drops their rows.  Every judgement is
    *bit-identical* to running ``n`` scalar detectors side by side:

    * pushes and resets are plain array stores, so the window contents
      are the same floats the deque would hold;
    * the convergence test is the same ``(max - min) / max`` on the
      same ten values (max/min are order-free);
    * the converged :meth:`values` and the timeout window both
      reconstruct the window *in push order* (oldest first) before
      reducing, so even order-sensitive reductions — ``np.mean``'s
      pairwise summation, Python's left-to-right ``sum`` — see the
      exact operand sequence the scalar detector's deque yields.
    """

    def __init__(self, n: int, window: int = WINDOW, threshold: float = THRESHOLD):
        if n < 1:
            raise ValueError(f"kernel needs >= 1 session, got {n}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.window = window
        self.threshold = threshold
        self._ring = np.zeros((window, n), dtype=np.float64)
        self._count = np.zeros(n, dtype=np.int64)
        #: The ring column the next push writes, the same for every row.
        self._pos = 0

    @property
    def n(self) -> int:
        """Live rows."""
        return self._count.size

    def push(self, samples: np.ndarray) -> None:
        """Record one sample per live row (same validation as the
        scalar detector: finite, non-negative)."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape != (self.n,):
            raise ValueError(
                f"expected one sample per live row ({self.n}), got "
                f"shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(samples < 0):
            raise ValueError("samples must be non-negative")
        self._ring[self._pos] = samples
        self._pos = (self._pos + 1) % self.window
        np.minimum(self._count + 1, self.window, out=self._count)

    def reset(self, rows: np.ndarray) -> None:
        """Forget the selected rows' windows (rate change)."""
        self._count[rows] = 0

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the rows where the boolean mask ``keep`` is set, in
        order; the shared position stays."""
        self._ring = np.compress(keep, self._ring, axis=1)
        self._count = self._count[keep]

    def converged(self) -> np.ndarray:
        """Boolean mask over the live rows: full window agrees within
        the threshold.  A window is only "full" after ``window`` pushes
        since the last reset, at which point every ring slot holds a
        fresh sample, so whole-column max/min are exactly the deque's."""
        top = self._ring.max(axis=0)
        out = (self._count >= self.window) & (top > 0)
        live = np.flatnonzero(out)
        if live.size:
            t = top[live]
            out[live] = (t - self._ring.min(axis=0)[live]) / t <= self.threshold
        return out

    def ordered_window(self, row: int) -> np.ndarray:
        """Row ``row``'s current window, oldest sample first — the exact
        sequence ``list(detector._samples)`` would give."""
        count = int(self._count[row])
        cols = (self._pos - count + np.arange(count)) % self.window
        return self._ring[cols, row]

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Converged results for the live rows ``rows``: ``np.mean``
        over each full window in push order, matching
        :meth:`ConvergenceDetector.value` operation for operation.

        The windows are gathered oldest first into C-ordered rows, over
        which ``mean(axis=1)`` is each row's own pairwise sum."""
        cols = (self._pos + np.arange(self.window)) % self.window
        windows = np.ascontiguousarray(self._ring[:, rows][cols].T)
        return windows.mean(axis=1)
