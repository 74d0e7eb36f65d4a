"""FastBTS (NSDI'21) reimplementation: crucial-interval sampling.

FastBTS observes that true-bandwidth samples concentrate while noise
samples scatter, so it searches for the *crucial interval* — the
narrow value interval with the highest concentration, scoring each
candidate interval by sample density x quantity — and stops as soon as
that interval stabilises, reporting its weighted centre.

The weakness §5.3 demonstrates: on fast links, samples collected while
TCP is still ramping also concentrate (each slow-start plateau looks
"dense"), so the crucial interval can stabilise *before* the access
link is saturated, underestimating bandwidth — FastBTS shows the worst
accuracy (≈0.79) of the services the paper compares.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.common import (
    BandwidthTestService,
    BTSResult,
    TestOutcome,
    failed_result,
)
from repro.baselines.driver import (
    NoReachableServerError,
    TcpFloodSession,
    ping_phase_duration,
)
from repro.tcp.slowstart import check_cc_name
from repro.testbed.env import TestEnvironment

MAX_DURATION_S = 30.0
#: Relative width of a candidate crucial interval (upper/lower bound).
INTERVAL_RATIO = 1.10
#: Consecutive samples over which the crucial interval must be stable.
STABLE_ROUNDS = 6
#: Relative movement of the interval centre regarded as stable.
STABILITY_TOLERANCE = 0.05
#: Samples collected before interval search begins.
MIN_SAMPLES = 10
N_PINGED = 5


def crucial_interval(
    values: List[float], ratio: float = INTERVAL_RATIO
) -> Tuple[float, float, float]:
    """Find the crucial interval over ``values``.

    Scans intervals ``[v, v * ratio]`` anchored at each sample value and
    scores them by ``count^2 / width`` (sample quantity x density).
    Returns ``(lower, upper, weighted_mean)`` of the best interval.
    """
    if not values:
        raise ValueError("cannot search an empty sample set")
    if ratio <= 1.0:
        raise ValueError(f"interval ratio must exceed 1, got {ratio}")
    arr = np.sort(np.asarray(values, dtype=float))
    best_score = -1.0
    best: Tuple[float, float, float] = (arr[0], arr[0], arr[0])
    for i, low in enumerate(arr):
        if low <= 0:
            continue
        high = low * ratio
        j = int(np.searchsorted(arr, high, side="right"))
        members = arr[i:j]
        width = high - low
        score = len(members) ** 2 / width if width > 0 else float(len(members))
        if score > best_score:
            best_score = score
            best = (float(low), float(high), float(np.mean(members)))
    return best


class FastBTS(BandwidthTestService):
    """FastBTS's crucial-interval test over TCP flooding."""

    name = "fastbts"

    def __init__(self, cc_name: str = "cubic"):
        self.cc_name = check_cc_name(cc_name)

    def run(self, env: TestEnvironment) -> BTSResult:
        ping_s = ping_phase_duration(env, N_PINGED)
        # FastBTS's design goal is a light footprint: it probes with a
        # couple of elastic connections to one server instead of a
        # flooding fleet — which is precisely why its crucial interval
        # can lock onto a slow-start plateau on fast links.
        session = TcpFloodSession(
            env, cc_name=self.cc_name, connections_per_server=1, max_servers=2
        )
        state = {"centers": [], "result": None}

        def stop_check(samples: List[Tuple[float, float]]) -> bool:
            values = [s for _, s in samples]
            if len(values) < MIN_SAMPLES:
                return False
            _, _, center = crucial_interval(values)
            state["centers"].append(center)
            recent: List[float] = state["centers"][-STABLE_ROUNDS:]
            if len(recent) < STABLE_ROUNDS:
                return False
            top = max(recent)
            if top <= 0:
                return False
            if (top - min(recent)) / top <= STABILITY_TOLERANCE:
                state["result"] = center
                return True
            return False

        try:
            samples = session.run(MAX_DURATION_S, stop_check=stop_check)
        except NoReachableServerError as exc:
            return failed_result(self.name, ping_s, exc)
        values = [s for _, s in samples]
        result: Optional[float] = state["result"]
        outcome = TestOutcome.CONVERGED
        if result is None:
            # The crucial interval never stabilised within the budget;
            # fall back to the interval over everything collected.
            _, _, result = crucial_interval(values)
            outcome = TestOutcome.TIMED_OUT
        duration = samples[-1][0] if samples else 0.0
        return BTSResult(
            service=self.name,
            bandwidth_mbps=float(result),
            duration_s=duration,
            ping_s=ping_s,
            bytes_used=session.bytes_used,
            samples=samples,
            servers_used=session.servers_used,
            meta={"estimator": "crucial-interval"},
            outcome=outcome,
        )
