"""BTS-APP: the commercial bandwidth test the paper instruments (§2).

Probing: flood TCP connections for a fixed 10 seconds, one bandwidth
sample every 50 ms (200 samples), recruiting up to 5 nearby servers as
thresholds are crossed.

Estimation: partition the 200 samples into 20 groups of 10; discard
the 5 groups with the lowest average (slow-start noise) and the 2 with
the highest (bursts); the remaining groups' average is the result.
"""

from __future__ import annotations

from typing import List, Sequence

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
from repro.baselines.floodbank import FloodRun, run_flood_bank
from repro.tcp.slowstart import check_cc_name
from repro.testbed.env import TestEnvironment

PROBE_DURATION_S = 10.0
N_GROUPS = 20
DROP_LOWEST_GROUPS = 5
DROP_HIGHEST_GROUPS = 2
#: Nearby servers PINGed during selection (§2).
N_PINGED = 5


def group_trimmed_mean(
    values: Sequence[float],
    n_groups: int = N_GROUPS,
    drop_lowest: int = DROP_LOWEST_GROUPS,
    drop_highest: int = DROP_HIGHEST_GROUPS,
) -> float:
    """BTS-APP's estimator over a sample sequence.

    Groups are formed in time order; incomplete trailing samples are
    ignored.  Raises :class:`ValueError` when there are not enough
    samples to form the groups that survive trimming.
    """
    if drop_lowest + drop_highest >= n_groups:
        raise ValueError("trimming would discard every group")
    values = list(values)
    group_size = len(values) // n_groups
    if group_size < 1:
        raise ValueError(
            f"{len(values)} samples cannot form {n_groups} groups"
        )
    groups = [
        values[i * group_size : (i + 1) * group_size] for i in range(n_groups)
    ]
    averages = sorted(float(np.mean(g)) for g in groups)
    kept = averages[drop_lowest : n_groups - drop_highest]
    return float(np.mean(kept))


class BtsApp(BandwidthTestService):
    """The production BTS-APP logic over the simulated testbed."""

    name = "bts-app"

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
        values: List[float] = [s for _, s in flood.samples]
        return BTSResult(
            service=self.name,
            bandwidth_mbps=group_trimmed_mean(values),
            duration_s=PROBE_DURATION_S,
            ping_s=ping_s,
            bytes_used=flood.bytes_used,
            samples=flood.samples,
            servers_used=flood.servers_used,
            meta={"estimator": "group-trimmed-mean"},
            # BTS-APP has no stopping rule: a full 10 s flood always
            # yields its designed estimate.
            outcome=TestOutcome.CONVERGED,
        )
