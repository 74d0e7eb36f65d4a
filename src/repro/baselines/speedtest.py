"""Speedtest-style BTS: the design BTS-APP derives from (§2, §5.1).

Differences from BTS-APP: a 15-second probing window (Speedtest serves
global users with longer RTTs) and a static percentile trim — drop the
top 10% and bottom 25% of samples, then average.  Like BTS-APP's, its
fixed flood has no stop check, so a campaign's rows run through the
flood bank (:meth:`SpeedtestLike.run_bank`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.baselines.common import BandwidthTestService, BTSResult, failed_result
from repro.baselines.driver import (
    NoReachableServerError,
    TcpFloodSession,
    ping_phase_duration,
)
from repro.baselines.floodbank import FloodRun, run_flood_bank
from repro.tcp.slowstart import check_cc_name
from repro.testbed.env import TestEnvironment

PROBE_DURATION_S = 15.0
TRIM_TOP = 0.10
TRIM_BOTTOM = 0.25
#: Speedtest PINGs 10 of its global pool (§2).
N_PINGED = 10


def percentile_trimmed_mean(
    values: Sequence[float],
    trim_top: float = TRIM_TOP,
    trim_bottom: float = TRIM_BOTTOM,
) -> float:
    """Speedtest's estimator: mean of samples between the trim bounds."""
    if trim_top + trim_bottom >= 1.0:
        raise ValueError("trim fractions would discard every sample")
    values = np.sort(np.asarray(list(values), dtype=float))
    if len(values) == 0:
        raise ValueError("no samples to estimate from")
    lo = int(len(values) * trim_bottom)
    hi = len(values) - int(len(values) * trim_top)
    kept = values[lo:hi]
    if len(kept) == 0:
        kept = values
    return float(np.mean(kept))


class SpeedtestLike(BandwidthTestService):
    """Speedtest's probing and estimation behaviour."""

    name = "speedtest"

    def __init__(self, cc_name: str = "cubic"):
        self.cc_name = check_cc_name(cc_name)

    def run(self, env: TestEnvironment) -> BTSResult:
        ping_s = ping_phase_duration(env, N_PINGED)
        session = TcpFloodSession(env, cc_name=self.cc_name)
        try:
            samples = session.run(PROBE_DURATION_S)
        except NoReachableServerError as exc:
            return failed_result(self.name, ping_s, exc)
        return self._result(
            ping_s, FloodRun(samples, session.bytes_used, session.servers_used)
        )

    def run_bank(self, envs: Sequence[TestEnvironment]) -> List[BTSResult]:
        """``[self.run(env) for env in envs]``, with the floods stepped
        in lockstep by :func:`~repro.baselines.floodbank.run_flood_bank`.

        Raises ``ValueError`` for an environment the bank cannot
        express, such as one with a fault plan, and for environments
        that share an RNG.
        """
        floods = run_flood_bank(envs, self.cc_name, PROBE_DURATION_S)
        return [
            self._result(ping_phase_duration(env, N_PINGED), flood)
            for env, flood in zip(envs, floods)
        ]

    def _result(self, ping_s: float, flood: FloodRun) -> BTSResult:
        return BTSResult(
            service=self.name,
            bandwidth_mbps=percentile_trimmed_mean(
                [s for _, s in flood.samples]
            ),
            duration_s=PROBE_DURATION_S,
            ping_s=ping_s,
            bytes_used=flood.bytes_used,
            samples=flood.samples,
            servers_used=flood.servers_used,
            meta={"estimator": "percentile-trim"},
        )
