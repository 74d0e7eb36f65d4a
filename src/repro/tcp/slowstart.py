"""Slow-start / ramp-up time measurement (reproduces Figure 17).

The paper instruments 15 production test servers with ``tcp_probe`` and
measures how long TCP takes to ramp to the access bandwidth under
Cubic, Reno, and BBR.  Here we run the fluid models over a simulated
path and record the first time the delivery rate sustainably reaches a
saturation fraction of the bottleneck capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.path import NetworkPath
from repro.tcp.bbr import BBR
from repro.tcp.congestion import CongestionControl
from repro.tcp.connection import TcpConnection
from repro.tcp.cubic import Cubic
from repro.tcp.reno import Reno

#: Consecutive saturated slices required to call the ramp complete.
_SUSTAIN_SLICES = 5


#: The congestion-control algorithms :func:`make_cc` builds, matched
#: case-insensitively.
CC_NAMES = ("reno", "cubic", "bbr")


def check_cc_name(name: str) -> str:
    """``name`` when :func:`make_cc` accepts it; ``ValueError``
    otherwise.  Services check their ``cc_name`` at construction, so a
    bad name fails before any test runs."""
    if name.lower() not in CC_NAMES:
        raise ValueError(f"unknown congestion control algorithm: {name!r}")
    return name


def make_cc(name: str, rng: Optional[np.random.Generator] = None) -> CongestionControl:
    """Build a congestion-control instance by name (one of
    :data:`CC_NAMES`)."""
    normalized = check_cc_name(name).lower()
    if normalized == "reno":
        return Reno()
    if normalized == "cubic":
        return Cubic(rng=rng)
    return BBR()


@dataclass
class RampMeasurement:
    """Result of one ramp-time measurement.

    Attributes
    ----------
    algorithm:
        Congestion-control name.
    bandwidth_mbps:
        Bottleneck capacity used.
    ramp_time_s:
        Time from connection start (including handshake setup) until
        the delivery rate sustainably reached the saturation fraction;
        equals ``duration_s`` when the connection never got there.
    saturated:
        Whether saturation was reached within the measurement window.
    timeline:
        (time_s, rate_mbps) samples for inspection.
    """

    algorithm: str
    bandwidth_mbps: float
    ramp_time_s: float
    saturated: bool
    timeline: List[Tuple[float, float]] = field(repr=False, default_factory=list)


def measure_ramp_time(
    algorithm: str,
    bandwidth_mbps: float,
    rtt_s: float = 0.040,
    loss_rate: float = 0.01,
    duration_s: float = 10.0,
    saturation_fraction: float = 0.9,
    rng: Optional[np.random.Generator] = None,
    include_setup: bool = True,
) -> RampMeasurement:
    """Measure how long ``algorithm`` takes to saturate a path.

    Parameters mirror the paper's experiment: a single bulk download
    over an otherwise idle path whose bottleneck is the access link.
    ``include_setup`` adds two RTTs of connection establishment
    (TCP handshake + HTTP request), which real tests pay before any
    byte arrives.
    """
    if bandwidth_mbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_mbps}")
    if not 0 < saturation_fraction <= 1:
        raise ValueError(
            f"saturation fraction must be in (0, 1], got {saturation_fraction}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)

    network = Network()
    access = network.add_link(Link(bandwidth_mbps, name="access"))
    uplink = network.add_link(Link(bandwidth_mbps * 10, name="server"))
    path = NetworkPath(network, [access, uplink], rtt_s=rtt_s, loss_rate=loss_rate)

    conn = TcpConnection(path, make_cc(algorithm, rng=rng), rng=rng)
    conn.start()

    dt = min(rtt_s / 4.0, 0.010)
    target = saturation_fraction * bandwidth_mbps
    sustained = 0
    ramp_at: Optional[float] = None
    now = 0.0
    while now < duration_s:
        conn.pre_allocate(now)
        network.allocate(now)
        conn.post_allocate(now, dt)
        if conn.flow.allocated_mbps >= target:
            sustained += 1
            if sustained >= _SUSTAIN_SLICES and ramp_at is None:
                ramp_at = now - (_SUSTAIN_SLICES - 1) * dt
                break
        else:
            sustained = 0
        now += dt
    conn.stop()

    setup = 2.0 * rtt_s if include_setup else 0.0
    saturated = ramp_at is not None
    ramp_time = (ramp_at + setup) if saturated else duration_s
    return RampMeasurement(
        algorithm=algorithm,
        bandwidth_mbps=bandwidth_mbps,
        ramp_time_s=ramp_time,
        saturated=saturated,
        timeline=conn.timeline,
    )


def ramp_time_sweep(
    algorithms: List[str],
    bandwidths_mbps: List[float],
    repetitions: int = 5,
    rtt_s: float = 0.040,
    loss_rate: float = 0.01,
    seed: int = 20220822,
) -> dict:
    """Average ramp time per (algorithm, bandwidth) cell — the data
    behind Figure 17.  Returns ``{algorithm: [mean ramp time per
    bandwidth]}``."""
    results = {}
    for algorithm in algorithms:
        means = []
        for bw_index, bw in enumerate(bandwidths_mbps):
            times = []
            for rep in range(repetitions):
                rng = np.random.default_rng(seed + 1000 * bw_index + rep)
                m = measure_ramp_time(
                    algorithm, bw, rtt_s=rtt_s, loss_rate=loss_rate, rng=rng
                )
                times.append(m.ramp_time_s)
            means.append(float(np.mean(times)))
        results[algorithm] = means
    return results
