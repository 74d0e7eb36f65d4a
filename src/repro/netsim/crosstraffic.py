"""Cross traffic: competing flows on shared links.

Bandwidth tests in the wild share the access link with the user's own
background traffic (sync clients, streams) and share server uplinks
with other tests.  :class:`CrossTrafficSource` drives a set of on/off
flows whose demands change over time, letting harness scenarios stress
a BTS's robustness to genuinely contended links rather than only to
capacity fluctuation.

The source is driven by the same stepping loop as everything else:
call :meth:`advance` once per slice before the network allocates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.netsim.flow import Flow
from repro.netsim.link import Link
from repro.netsim.network import Network

#: Catch-up horizon of :meth:`CrossTrafficSource.advance`, in mean
#: on+off periods.  A time jump beyond this many periods (a blackout
#: window, a long idle gap in the fleet simulator) is resolved by one
#: closed-form stationary resample instead of replaying every toggle —
#: the exponential on/off process mixes to its stationary law in a few
#: periods, so nothing observable is lost past the horizon.
CATCHUP_HORIZON_PERIODS = 64.0


@dataclass
class OnOffSource:
    """One background flow alternating between bursts and silence.

    Attributes
    ----------
    rate_mbps:
        Demand while ON.
    mean_on_s / mean_off_s:
        Exponential means of the ON and OFF periods.
    """

    rate_mbps: float
    mean_on_s: float = 2.0
    mean_off_s: float = 4.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError("period means must be positive")


class CrossTrafficSource:
    """Drives a set of on/off flows on the given links."""

    def __init__(
        self,
        network: Network,
        links: List[Link],
        sources: List[OnOffSource],
        rng: np.random.Generator,
    ):
        if not sources:
            raise ValueError("need at least one source")
        self.network = network
        self.rng = rng
        self._sources = sources
        self._flows: List[Flow] = []
        self._on: List[bool] = []
        self._next_toggle_s: List[float] = []
        for i, source in enumerate(sources):
            flow = Flow(links, demand_mbps=0.0, label=f"xtraffic-{i}")
            network.start_flow(flow)
            self._flows.append(flow)
            on = bool(rng.random() < source.mean_on_s
                      / (source.mean_on_s + source.mean_off_s))
            self._on.append(on)
            mean = source.mean_on_s if on else source.mean_off_s
            self._next_toggle_s.append(float(rng.exponential(mean)))
            flow.demand_mbps = source.rate_mbps if on else 0.0

    def advance(self, now_s: float) -> None:
        """Toggle sources whose periods elapsed; update demands.

        The catch-up is bounded: a jump past
        :data:`CATCHUP_HORIZON_PERIODS` mean periods resamples the
        source's stationary state in O(1) (two draws) rather than
        replaying O(gap / mean period) toggles.
        """
        for i, source in enumerate(self._sources):
            period = source.mean_on_s + source.mean_off_s
            if now_s - self._next_toggle_s[i] > CATCHUP_HORIZON_PERIODS * period:
                # Stationary closed form: P(on) is the on-fraction, and
                # the residual to the next toggle is exponential in the
                # current state's mean (memorylessness).
                on = bool(self.rng.random() < source.mean_on_s / period)
                self._on[i] = on
                mean = source.mean_on_s if on else source.mean_off_s
                self._next_toggle_s[i] = now_s + float(self.rng.exponential(mean))
            else:
                while now_s >= self._next_toggle_s[i]:
                    self._on[i] = not self._on[i]
                    mean = source.mean_on_s if self._on[i] else source.mean_off_s
                    self._next_toggle_s[i] += float(self.rng.exponential(mean))
            self._flows[i].demand_mbps = (
                source.rate_mbps if self._on[i] else 0.0
            )

    def offered_load_mbps(self) -> float:
        """Current total demand across ON sources."""
        return sum(f.demand_mbps for f in self._flows)

    def stop(self) -> None:
        """Tear down all background flows (idempotent)."""
        for flow in self._flows:
            self.network.stop_flow(flow)

    @property
    def active_count(self) -> int:
        return sum(self._on)


def cross_traffic_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic cross-traffic stream keyed on ``(seed, label)``.

    Mirrors the substream discipline of :mod:`repro.dataset.substreams`:
    every link label under a root seed owns an independent stream, so
    two links never share a burst schedule and a scenario is fully
    reproducible from its seed.
    """
    import zlib

    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


def attach_cross_traffic(
    network: Network,
    link: Link,
    total_rate_mbps: float,
    n_sources: int,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
) -> CrossTrafficSource:
    """Convenience: split ``total_rate_mbps`` of bursty background load
    across ``n_sources`` on/off flows on one link.

    Pass an explicit ``rng``, or a ``seed`` to derive one keyed on
    ``(seed, link.name)`` via :func:`cross_traffic_rng`.  One of the two
    is required: a shared default stream would give every call site an
    identical burst schedule, defeating scenario diversity and masking
    contention variance.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    if total_rate_mbps <= 0:
        raise ValueError("rate must be positive")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is None and seed is None:
        raise ValueError("attach_cross_traffic needs an explicit rng or seed")
    if rng is None:
        rng = cross_traffic_rng(seed, link.name)
    per_source = total_rate_mbps / n_sources
    sources = [
        OnOffSource(
            rate_mbps=per_source,
            mean_on_s=float(rng.uniform(1.0, 3.0)),
            mean_off_s=float(rng.uniform(2.0, 6.0)),
        )
        for _ in range(n_sources)
    ]
    return CrossTrafficSource(network, [link], sources, rng)
