"""Global max-min fair bandwidth allocation.

The :class:`Network` tracks which flows traverse which links and
computes the classic *progressive filling* max-min fair allocation,
respecting per-flow demand caps.  Wireless schedulers (proportional-fair
at base stations, §5.1) and TCP under similar RTTs both approximate fair
sharing at the bottleneck, so this is the right fluid abstraction for
bandwidth testing: a test's achievable rate is its fair share of the
access link, possibly further limited by server uplinks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.netsim.flow import Flow
from repro.netsim.link import Link
from repro.units import serial_sum

#: Allocation precision in Mbps; increments below this terminate filling.
_EPSILON = 1e-9


class Network:
    """A set of links and the flows crossing them."""

    def __init__(self) -> None:
        self.links: List[Link] = []
        # Insertion-ordered (dict, not set): progressive filling sums
        # and iterates over flows, and float summation order must be a
        # function of the simulation alone, never of object addresses —
        # checkpoint/resume replays rows bit-identically only because
        # every iteration order here is deterministic.
        self.flows: Dict[Flow, None] = {}

    def add_link(self, link: Link) -> Link:
        """Register a link.  Returns it for chaining."""
        self.links.append(link)
        return link

    def start_flow(self, flow: Flow) -> Flow:
        """Activate a flow on its links.  Returns it for chaining."""
        for link in flow.links:
            if link not in self.links:
                raise ValueError(f"{link!r} is not part of this network")
            link.attach(flow)
        self.flows[flow] = None
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """Deactivate a flow; idempotent."""
        for link in flow.links:
            link.detach(flow)
        self.flows.pop(flow, None)
        flow.allocated_mbps = 0.0

    def allocate(self, time_s: float) -> None:
        """Compute max-min fair rates for all active flows at ``time_s``.

        Progressive filling: all unfrozen flows grow at the same rate
        until either a link saturates (freezing every unfrozen flow on
        it) or a flow reaches its demand (freezing just that flow).
        """
        active = [f for f in self.flows if f.effective_demand > 0]
        for f in self.flows:
            f.allocated_mbps = 0.0
        if not active:
            return

        capacities = {link: link.capacity_at(time_s) for link in self.links}
        unfrozen = set(active)

        while unfrozen:
            increment = math.inf
            # Limit from links: equal split of residual capacity among
            # the unfrozen flows on each link.
            for link in self.links:
                sharing = [f for f in link.flows if f in unfrozen]
                if not sharing:
                    continue
                used = serial_sum(f.allocated_mbps for f in link.flows)
                residual = capacities[link] - used
                increment = min(increment, residual / len(sharing))
            # Limit from demands: a capped flow stops at its demand.
            for flow in unfrozen:
                remaining = flow.effective_demand - flow.allocated_mbps
                increment = min(increment, remaining)

            if increment is math.inf:
                break
            increment = max(increment, 0.0)
            for flow in unfrozen:
                flow.allocated_mbps += increment

            newly_frozen = set()
            for flow in unfrozen:
                if flow.effective_demand - flow.allocated_mbps <= _EPSILON:
                    newly_frozen.add(flow)
            for link in self.links:
                used = serial_sum(f.allocated_mbps for f in link.flows)
                if capacities[link] - used <= _EPSILON:
                    newly_frozen.update(f for f in link.flows if f in unfrozen)
            if not newly_frozen:
                # No link saturated and no demand met: increment was
                # epsilon-small; stop to guarantee termination.
                break
            unfrozen -= newly_frozen

    def step(self, time_s: float, duration_s: float) -> None:
        """Allocate at ``time_s`` then deliver ``duration_s`` seconds of
        traffic on every active flow."""
        self.allocate(time_s)
        for flow in self.flows:
            flow.deliver(duration_s)

    def total_allocated(self, flows: Iterable[Flow]) -> float:
        """Sum of allocated rates over ``flows`` in Mbps."""
        return sum(f.allocated_mbps for f in flows)
