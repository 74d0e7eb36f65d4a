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

    Tracks ``n`` independent sliding windows at once — one per session
    in a :class:`~repro.core.sessionbank.SessionBank` — in a single
    ``(n, window)`` ring buffer.  Every judgement is *bit-identical* to
    running ``n`` scalar detectors side by side:

    * pushes and resets are plain array stores, so the window contents
      are the same floats the deque would hold;
    * the convergence test is the same ``(max - min) / max`` on the
      same ten values (max/min are order-free);
    * the converged :meth:`values` and the timeout window both
      reconstruct the window *in push order* (oldest first) before
      reducing, so even order-sensitive reductions — ``np.mean``'s
      pairwise summation, Python's left-to-right ``sum`` — see the
      exact operand sequence the scalar detector's deque yields.

    All per-step methods take an index array selecting the sessions
    still active, which is how the bank's done-mask drops finished
    sessions from the tick.
    """

    def __init__(self, n: int, window: int = WINDOW, threshold: float = THRESHOLD):
        if n < 1:
            raise ValueError(f"kernel needs >= 1 session, got {n}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.n = n
        self.window = window
        self.threshold = threshold
        self._buf = np.zeros((n, window), dtype=np.float64)
        self._pos = np.zeros(n, dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)

    def push(self, idx: np.ndarray, samples: np.ndarray) -> None:
        """Record one sample per selected session (same validation as
        the scalar detector: finite, non-negative)."""
        samples = np.asarray(samples, dtype=np.float64)
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(samples < 0):
            raise ValueError("samples must be non-negative")
        self._buf[idx, self._pos[idx]] = samples
        self._pos[idx] = (self._pos[idx] + 1) % self.window
        self._count[idx] = np.minimum(self._count[idx] + 1, self.window)

    def reset(self, idx: np.ndarray) -> None:
        """Forget the selected sessions' windows (rate change)."""
        self._count[idx] = 0

    def counts(self, idx: np.ndarray) -> np.ndarray:
        return self._count[idx]

    def converged(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask over ``idx``: full window agrees within the
        threshold.  A window is only "full" after ``window`` pushes
        since the last reset, at which point every ring slot holds a
        fresh sample, so whole-row max/min are exactly the deque's."""
        rows = self._buf[idx]
        top = rows.max(axis=1)
        out = (self._count[idx] >= self.window) & (top > 0)
        live = np.flatnonzero(out)
        if live.size:
            t = top[live]
            out[live] = (t - rows[live].min(axis=1)) / t <= self.threshold
        return out

    def ordered_window(self, i: int) -> np.ndarray:
        """Session ``i``'s current window, oldest sample first — the
        exact sequence ``list(detector._samples)`` would give."""
        pos = int(self._pos[i])
        count = int(self._count[i])
        if count >= self.window:
            return np.concatenate((self._buf[i, pos:], self._buf[i, :pos]))
        start = (pos - count) % self.window
        cols = (start + np.arange(count)) % self.window
        return self._buf[i, cols]

    def values(self, idx: np.ndarray) -> np.ndarray:
        """Converged results for the sessions ``idx``: ``np.mean`` over
        each full window in push order, matching
        :meth:`ConvergenceDetector.value` operation for operation.

        The windows are gathered oldest first into C-ordered rows, over
        which ``mean(axis=1)`` is each row's own pairwise sum."""
        idx = np.asarray(idx, dtype=np.int64)
        cols = (self._pos[idx, None] + np.arange(self.window)) % self.window
        windows = np.ascontiguousarray(self._buf[idx[:, None], cols])
        return windows.mean(axis=1)
