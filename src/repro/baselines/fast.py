"""FAST (Netflix fast.com) reimplementation.

FAST runs parallel TCP downloads and stops once the throughput
estimate stabilises: the test ends when the recent one-second moving
averages agree within a small tolerance (we use the 3% criterion the
paper attributes to FAST in §5.1).  Because probing still rides on TCP,
slow start and congestion noise delay stabilisation — the paper
measures FAST at 13.5 s average test time, barely better than pure
flooding on fast links.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.common import BandwidthTestService, BTSResult, failed_result
from repro.baselines.driver import (
    NoReachableServerError,
    TcpFloodSession,
    ping_phase_duration,
)
from repro.tcp.slowstart import check_cc_name
from repro.testbed.env import TestEnvironment

MAX_DURATION_S = 30.0
#: One-second moving-average window, in 50 ms samples.
WINDOW_SAMPLES = 20
#: Consecutive windows whose averages must agree.
STABLE_WINDOWS = 8
#: Max/min difference ratio regarded as stable.
STABILITY_TOLERANCE = 0.02
#: Minimum probing time before convergence may be declared; guards the
#: estimator against declaring the slow-start plateau stable.
MIN_DURATION_S = 7.5
N_PINGED = 5


def moving_averages(
    values: List[float], window: int = WINDOW_SAMPLES
) -> List[float]:
    """Trailing-window moving averages for each full window position."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(values) < window:
        return []
    arr = np.asarray(values, dtype=float)
    kernel = np.ones(window) / window
    return list(np.convolve(arr, kernel, mode="valid"))


def is_stable(
    values: List[float],
    window: int = WINDOW_SAMPLES,
    stable_windows: int = STABLE_WINDOWS,
    tolerance: float = STABILITY_TOLERANCE,
) -> bool:
    """True when the last ``stable_windows`` moving averages agree
    within ``tolerance``."""
    averages = moving_averages(values, window)
    if len(averages) < stable_windows:
        return False
    recent = averages[-stable_windows:]
    top = max(recent)
    if top <= 0:
        return False
    return (top - min(recent)) / top <= tolerance


class FastCom(BandwidthTestService):
    """FAST's convergence-based TCP test."""

    name = "fast"

    def __init__(self, cc_name: str = "bbr"):
        # Netflix servers deploy BBR.
        self.cc_name = check_cc_name(cc_name)

    def run(self, env: TestEnvironment) -> BTSResult:
        ping_s = ping_phase_duration(env, N_PINGED)
        session = TcpFloodSession(env, cc_name=self.cc_name)

        def stop_check(samples: List[Tuple[float, float]]) -> bool:
            if samples[-1][0] < MIN_DURATION_S:
                return False
            return is_stable([s for _, s in samples])

        try:
            samples = session.run(MAX_DURATION_S, stop_check=stop_check)
        except NoReachableServerError as exc:
            return failed_result(self.name, ping_s, exc)
        values = [s for _, s in samples]
        averages = moving_averages(values)
        bandwidth = float(averages[-1]) if averages else float(np.mean(values))
        duration = samples[-1][0] if samples else 0.0
        return BTSResult(
            service=self.name,
            bandwidth_mbps=bandwidth,
            duration_s=duration,
            ping_s=ping_s,
            bytes_used=session.bytes_used,
            samples=samples,
            servers_used=session.servers_used,
            meta={"estimator": "stable-moving-average"},
        )
