"""Back-to-back test pairs: Swiftest vs BTS-APP (§5.3, Figures 20-22).

Each pair draws a user context from a measurement campaign record,
builds *two* environments sharing the same access-capacity trace — one
against Swiftest's budget 100 Mbps pool, one against BTS-APP's 1 Gbps
pool — and runs both services.  Sharing the trace reproduces the
paper's back-to-back design: both tests see the same network weather.

A small fraction of environments get a traffic-shaped access link,
reproducing the pathological >30%-deviation tail §5.3 attributes to
shaping by base stations and WiFi APs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.baselines.btsapp import BtsApp
from repro.baselines.common import BTSResult, deviation
from repro.core.client import SwiftestClient, SwiftestResult
from repro.core.registry import BandwidthModelRegistry
from repro.dataset.records import Dataset
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.trace import CapacityTrace, FluctuatingTrace, ShapedTrace
from repro.testbed.env import ServerEndpoint, TestEnvironment

#: Probability an environment's access link is traffic-shaped.
SHAPED_PROBABILITY = 0.01

#: Range of fluctuation magnitudes for ordinary environments.
FLUCTUATION_RANGE = (0.01, 0.07)

#: Mean-reversion time and pre-drawn length of a fluctuating link.
ACCESS_TAU_S = 2.0
ACCESS_TRACE_S = 40.0

#: Server RTT spread: BTS pools sit near the user's IXP domain.
RTT_RANGE_S = (0.008, 0.035)


def _access_draws(
    bandwidth_mbps: float, rng: np.random.Generator
) -> Union[ShapedTrace, float]:
    """The first draws of one access link's weather, in stream order.

    Returns the finished :class:`ShapedTrace` of a shaped link, or the
    ``sigma`` of a fluctuating one, whose OU draws
    (:func:`repro.netsim.trace.ou_draws`) come next on ``rng``.  A
    shaped link throttles to a share of its capacity, but never below
    1 Mbps — nor above the capacity itself, which a sub-megabit
    context would otherwise get.
    """
    if rng.random() < SHAPED_PROBABILITY:
        throttled = max(1.0, bandwidth_mbps * rng.uniform(0.3, 0.6))
        return ShapedTrace(
            base_mbps=bandwidth_mbps,
            throttled_mbps=min(bandwidth_mbps, throttled),
            period_s=rng.uniform(2.0, 6.0),
            duty_cycle=rng.uniform(0.4, 0.7),
        )
    return float(rng.uniform(*FLUCTUATION_RANGE))


def _access_trace(
    bandwidth_mbps: float, rng: np.random.Generator
) -> CapacityTrace:
    """Draw the access-capacity weather for one test pair."""
    weather = _access_draws(bandwidth_mbps, rng)
    if isinstance(weather, ShapedTrace):
        return weather
    return FluctuatingTrace(
        bandwidth_mbps, sigma=weather, tau_s=ACCESS_TAU_S,
        duration_s=ACCESS_TRACE_S, rng=rng,
    )


def _pool_environment(
    trace: CapacityTrace,
    tech: str,
    n_servers: int,
    server_capacity_mbps: float,
    rng: np.random.Generator,
) -> TestEnvironment:
    network = Network()
    access = network.add_link(Link(trace, name="access"))
    lo, hi = RTT_RANGE_S
    servers = [
        ServerEndpoint(
            name=f"server-{i}",
            uplink=network.add_link(Link(server_capacity_mbps, name=f"s{i}")),
            rtt_s=float(rng.uniform(lo, hi)),
            capacity_mbps=server_capacity_mbps,
        )
        for i in range(n_servers)
    ]
    return TestEnvironment(network, access, servers, tech=tech, rng=rng)


def environment_for_record(
    bandwidth_mbps: float,
    tech: str,
    rng: np.random.Generator,
    n_servers: int = 10,
    server_capacity_mbps: float = 100.0,
) -> TestEnvironment:
    """Standalone environment for one user context (used by examples
    and the comparison harness)."""
    trace = _access_trace(bandwidth_mbps, rng)
    return _pool_environment(trace, tech, n_servers, server_capacity_mbps, rng)


@dataclass
class PairObservation:
    """One back-to-back pair."""

    tech: str
    true_mbps: float
    swiftest: SwiftestResult
    btsapp: BTSResult

    @property
    def deviation(self) -> float:
        return deviation(self.swiftest.bandwidth_mbps, self.btsapp.bandwidth_mbps)


@dataclass
class PairCampaign:
    """A batch of back-to-back pairs with aggregate views."""

    observations: List[PairObservation] = field(default_factory=list)

    def by_tech(self, tech: str) -> List[PairObservation]:
        return [o for o in self.observations if o.tech == tech]

    def techs(self) -> List[str]:
        return sorted({o.tech for o in self.observations})

    # -- Figure 20: Swiftest test time --------------------------------

    def swiftest_durations(self, tech: Optional[str] = None) -> np.ndarray:
        obs = self.by_tech(tech) if tech else self.observations
        return np.array([o.swiftest.duration_s for o in obs])

    def swiftest_total_times(self, tech: Optional[str] = None) -> np.ndarray:
        obs = self.by_tech(tech) if tech else self.observations
        return np.array([o.swiftest.total_time_s for o in obs])

    # -- Figure 21: data usage -----------------------------------------

    def data_usage_mb(self, service: str, tech: Optional[str] = None) -> np.ndarray:
        obs = self.by_tech(tech) if tech else self.observations
        if service == "swiftest":
            return np.array([o.swiftest.data_mb for o in obs])
        if service == "bts-app":
            return np.array([o.btsapp.data_mb for o in obs])
        raise ValueError(f"unknown service {service!r}")

    # -- Figure 22: deviation -------------------------------------------

    def deviations(self, tech: Optional[str] = None) -> np.ndarray:
        obs = self.by_tech(tech) if tech else self.observations
        return np.array([o.deviation for o in obs])

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Headline numbers per technology plus overall."""
        out: Dict[str, Dict[str, float]] = {}
        for tech in self.techs() + ["overall"]:
            scope = None if tech == "overall" else tech
            durations = self.swiftest_durations(scope)
            devs = self.deviations(scope)
            sw_mb = self.data_usage_mb("swiftest", scope)
            bts_mb = self.data_usage_mb("bts-app", scope)
            out[tech] = {
                "mean_duration_s": float(durations.mean()),
                "median_duration_s": float(np.median(durations)),
                "max_duration_s": float(durations.max()),
                "mean_deviation": float(devs.mean()),
                "median_deviation": float(np.median(devs)),
                "swiftest_mb": float(sw_mb.mean()),
                "btsapp_mb": float(bts_mb.mean()),
                "usage_reduction": float(bts_mb.mean() / sw_mb.mean()),
            }
        return out


def run_pair_campaign(
    dataset: Dataset,
    registry: BandwidthModelRegistry,
    n_pairs: int,
    seed: int = 20211220,
    techs: Optional[List[str]] = None,
) -> PairCampaign:
    """Run ``n_pairs`` back-to-back tests on user contexts sampled from
    a measurement dataset."""
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    rng = np.random.default_rng(seed)
    chosen_techs = techs or [t for t in registry.technologies()]
    pool = dataset.filter(np.isin(dataset.column("tech"), chosen_techs))
    if len(pool) < n_pairs:
        raise ValueError(
            f"dataset has {len(pool)} eligible tests, needs {n_pairs}"
        )
    sample = pool.sample(n_pairs, rng)
    swiftest = SwiftestClient(registry)
    btsapp = BtsApp()
    campaign = PairCampaign()
    bandwidths = sample.bandwidth
    tech_col = sample.column("tech")
    for i in range(n_pairs):
        tech = str(tech_col[i])
        true_bw = float(bandwidths[i])
        trace_rng = np.random.default_rng(seed + 7919 * (i + 1))
        trace = _access_trace(true_bw, trace_rng)
        env_swift = _pool_environment(
            trace, tech, n_servers=10, server_capacity_mbps=100.0,
            rng=np.random.default_rng(seed + 104729 * (i + 1)),
        )
        env_bts = _pool_environment(
            trace, tech, n_servers=5, server_capacity_mbps=1000.0,
            rng=np.random.default_rng(seed + 1299709 * (i + 1)),
        )
        campaign.observations.append(
            PairObservation(
                tech=tech,
                true_mbps=true_bw,
                swiftest=swiftest.run(env_swift),
                btsapp=btsapp.run(env_bts),
            )
        )
    return campaign
