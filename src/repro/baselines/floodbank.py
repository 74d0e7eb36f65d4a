"""Lockstep TCP floods: many environments' flooding tests stepped at once.

:class:`~repro.baselines.driver.TcpFloodSession` steps one environment's
connections in 12.5 ms slices: publish each connection's demand, share
the links max-min fairly (:meth:`repro.netsim.network.Network.allocate`),
deliver the slice and close the RTT rounds that completed.
:func:`run_flood_bank` runs that loop for a bank of environments, with
each connection a column of ``(rows, lanes)`` arrays, and returns what
each row's session would have measured, bit for bit:

* **Lanes.**  Lane ``CONNECTIONS_PER_SERVER * k + i`` is connection
  ``i`` of the ``k``-th server the row recruits: the order of the
  session's connections and of the access link's flows.  A lane not
  yet recruited holds ``+0.0`` everywhere, which leaves every sum
  unchanged.
* **One clock.**  Every row steps and samples on the same ``now``.
* **Allocation** is the network's progressive filling on the star a
  flood builds (the access link plus each recruited server's uplink),
  for all rows at once: the same increments and the same epsilon
  freezes, each row filling until a pass freezes nothing.  A link's
  load is a left-to-right sum over its lanes in flow order, as
  :func:`repro.units.serial_sum` adds the link's flows.
* **Fluid step and round ends** follow
  :meth:`repro.tcp.connection.TcpConnection.post_allocate` in its
  operand order.  Lanes whose round completes are visited in
  ``(row, lane)`` order; each draws its spurious loss from its row's
  RNG and calls its own congestion control's ``on_round``, so every
  row's draws happen in the session's order and Reno, Cubic and BBR
  keep one implementation each.

A bank models no fault plan (server outages are the session's job) and
raises ``ValueError`` for an environment that carries one.  It also
raises ``ValueError`` for environments that share an RNG (the same
environment twice, or environments built from one generator): the bank
would interleave their draws, which sequential sessions take in blocks.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.baselines.driver import (
    _STEP_S,
    CONNECTIONS_PER_SERVER,
    MAX_SERVERS,
    escalation_thresholds,
)
from repro.netsim.network import _EPSILON
from repro.netsim.trace import (
    ConstantTrace,
    FluctuatingTrace,
    grid_positions,
    interpolate,
)
from repro.tcp.congestion import MSS_BYTES, RoundOutcome
from repro.tcp.connection import _MIN_BUFFER_BYTES
from repro.tcp.slowstart import make_cc
from repro.testbed.env import TestEnvironment
from repro.units import SAMPLE_INTERVAL_S

_LANES = MAX_SERVERS * CONNECTIONS_PER_SERVER


class FloodRun(NamedTuple):
    """What one row's :meth:`TcpFloodSession.run` would have left: its
    samples, ``bytes_used`` and ``servers_used``."""

    samples: List[Tuple[float, float]]
    bytes_used: float
    servers_used: int


def _check_environment(env: TestEnvironment) -> None:
    """Raise ``ValueError`` for an environment the bank cannot express."""
    if env.faults is not None:
        raise ValueError(
            "a flood bank models no fault plan; run this environment "
            "through TcpFloodSession"
        )
    if env.network.flows or any(
        type(server.uplink.trace) is not ConstantTrace
        for server in env.servers
    ):
        raise ValueError(
            "a flood bank needs an idle network with constant server "
            "uplinks"
        )


class _AccessCapacity:
    """Every row's access capacity at one instant.

    A :class:`FluctuatingTrace` row reads its OU grid, and rows whose
    grids wrap on the same duration share one grid position; any other
    trace is asked directly.
    """

    def __init__(self, envs: Sequence[TestEnvironment]):
        self.n = len(envs)
        by_duration = {}
        self.others = []
        for row, env in enumerate(envs):
            trace = env.access.trace
            if type(trace) is FluctuatingTrace:
                by_duration.setdefault(trace.duration_s, []).append(row)
            else:
                self.others.append((row, trace))
        self.groups = [
            (duration, np.array(rows),
             np.array([envs[row].access.trace.grid for row in rows]))
            for duration, rows in by_duration.items()
        ]

    def at(self, now: float) -> np.ndarray:
        out = np.empty(self.n)
        for duration, rows, grids in self.groups:
            lo, hi, frac = grid_positions(now, duration, grids.shape[1])
            out[rows] = interpolate(grids, lo, hi, frac)
        for row, trace in self.others:
            out[row] = trace.capacity_at(now)
        return out


def _allocate(
    demand: np.ndarray, access: np.ndarray, uplink: np.ndarray
) -> np.ndarray:
    """:meth:`Network.allocate` on every row's star at once: ``demand``
    per lane, ``access`` capacity per row, ``uplink`` capacity per row
    and server.  Returns the rate of every lane."""
    n = demand.shape[0]
    star = (n, MAX_SERVERS, CONNECTIONS_PER_SERVER)
    rate = np.zeros_like(demand)
    unfrozen = demand > 0
    filling = unfrozen.any(axis=1)
    # Every load is 0.0 before the first pass.
    access_room, uplink_room = access, uplink
    while filling.any():
        on_access = unfrozen.sum(axis=1)
        on_uplink = unfrozen.reshape(star).sum(axis=2)
        step = np.divide(
            access_room, on_access, out=np.full(n, np.inf),
            where=on_access > 0,
        )
        share = np.divide(
            uplink_room, on_uplink, out=np.full(uplink.shape, np.inf),
            where=on_uplink > 0,
        )
        headroom = np.subtract(
            demand, rate, out=np.full(demand.shape, np.inf), where=unfrozen
        )
        np.minimum(step, share.min(axis=1), out=step)
        np.minimum(step, headroom.min(axis=1), out=step)
        np.maximum(step, 0.0, out=step)
        grow = unfrozen & filling[:, None]
        np.add(rate, step[:, None], out=rate, where=grow)

        access_room = access - np.cumsum(rate, axis=1)[:, -1]
        uplink_room = uplink - np.cumsum(rate.reshape(star), axis=2)[..., -1]
        frozen = np.repeat(
            uplink_room <= _EPSILON, CONNECTIONS_PER_SERVER, axis=1
        )
        frozen |= (access_room <= _EPSILON)[:, None]
        frozen |= demand - rate <= _EPSILON
        frozen &= grow
        unfrozen &= ~frozen
        filling &= frozen.any(axis=1) & unfrozen.any(axis=1)
    return rate


def run_flood_bank(
    envs: Sequence[TestEnvironment], cc_name: str, duration_s: float
) -> List[FloodRun]:
    """Flood every environment for ``duration_s`` in lockstep.

    Element ``k`` is, bit for bit, what
    ``TcpFloodSession(envs[k], cc_name).run(duration_s)`` leaves: the
    same samples, ``bytes_used`` and ``servers_used``, with the same
    draws from ``envs[k].rng``.  The environments' networks are not
    touched.  Raises ``ValueError`` for an environment with a fault
    plan and for environments that share an RNG.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    for env in envs:
        _check_environment(env)
    if len({id(env.rng) for env in envs}) != len(envs):
        raise ValueError(
            "a flood bank needs one RNG per environment; environments "
            "that share one must run one at a time"
        )
    n = len(envs)
    shape = (n, _LANES)
    # A lane's RTT is 1.0 until recruited: its demand stays 0.0.
    rtt = np.ones(shape)
    win = np.zeros(shape)
    live = np.zeros(shape, dtype=bool)
    uplink = np.full((n, MAX_SERVERS), np.inf)
    lane_uplink = np.full(shape, np.inf)
    received = np.zeros(shape)
    round_bytes = np.zeros(shape)
    since = np.zeros(shape)
    # The congestion control of a row's lane, at row * _LANES + lane.
    ccs = [None] * (n * _LANES)
    ranked = [env.servers_by_rtt()[:MAX_SERVERS] for env in envs]
    servers_used = [0] * n
    rngs = [env.rng for env in envs]
    loss_rates = [env.loss_rate for env in envs]
    access = _AccessCapacity(envs)

    def recruit(row: int, now: float) -> None:
        k = servers_used[row]
        if k == len(ranked[row]):
            return
        server = ranked[row][k]
        lanes = slice(k * CONNECTIONS_PER_SERVER,
                      (k + 1) * CONNECTIONS_PER_SERVER)
        for lane in range(lanes.start, lanes.stop):
            cc = make_cc(cc_name, rng=rngs[row])
            ccs[row * _LANES + lane] = cc
            win[row, lane] = cc.demand_pkts_per_rtt()
        rtt[row, lanes] = server.rtt_s
        live[row, lanes] = True
        since[row, lanes] = 0.0
        uplink[row, k] = lane_uplink[row, lanes] = (
            server.uplink.capacity_at(now)
        )
        servers_used[row] = k + 1

    for row in range(n):
        recruit(row, 0.0)
    thresholds = np.array(escalation_thresholds())
    crossed = np.zeros(n, dtype=np.int64)
    slice_start = np.zeros(n)
    times: List[float] = []
    columns: List[np.ndarray] = []
    now = 0.0
    next_sample_at = SAMPLE_INTERVAL_S
    while now < duration_s:
        capacity = access.at(now)
        demand = win * MSS_BYTES * 8 / rtt / 1e6
        rate = _allocate(demand, capacity, uplink)

        # TcpConnection.post_allocate, every lane at once.
        bps = rate * 1000000 / 8
        delivered = bps * _STEP_S
        received += delivered
        round_bytes += delivered
        backlog = np.maximum(0.0, demand * 1e6 / 8 * rtt - bps * rtt)
        queue = np.divide(
            backlog, bps, out=np.zeros(shape), where=rate > 0
        )
        since += _STEP_S
        ends = since >= rtt + queue
        ends &= live
        # Flat C-order positions: (row, lane) order, row-major.
        spots = np.flatnonzero(ends)
        if spots.size:
            lane_rtt = rtt.take(spots)
            bdp = (
                np.minimum(capacity.take(spots // _LANES),
                           lane_uplink.take(spots))
                * 1e6 / 8 * lane_rtt
            )
            # A flood's connections keep the default buffer factor, 1.0.
            congested = backlog.take(spots) > np.maximum(
                bdp, _MIN_BUFFER_BYTES
            )
            wins = []
            for spot, pkts, pps, loss, delay, min_rtt in zip(
                spots.tolist(),
                (round_bytes.take(spots) / MSS_BYTES).tolist(),
                (bps.take(spots) / MSS_BYTES).tolist(),
                congested.tolist(),
                queue.take(spots).tolist(),
                lane_rtt.tolist(),
            ):
                row = spot // _LANES
                cc = ccs[spot]
                cc.on_round(RoundOutcome(
                    delivered_pkts=pkts,
                    delivery_rate_pps=pps,
                    congestion_loss=loss,
                    spurious_loss=rngs[row].random() < loss_rates[row],
                    queue_delay_s=delay,
                    min_rtt_s=min_rtt,
                ))
                wins.append(cc.demand_pkts_per_rtt())
            win.put(spots, wins)
            since.put(spots, 0.0)
            round_bytes.put(spots, 0.0)

        now += _STEP_S
        if now + 1e-9 >= next_sample_at:
            total = np.cumsum(received, axis=1)[:, -1]
            sample = (total - slice_start) * 8 / 1e6 / SAMPLE_INTERVAL_S
            times.append(now)
            columns.append(sample)
            slice_start = total
            next_sample_at += SAMPLE_INTERVAL_S
            # TcpFloodSession._maybe_escalate: one recruit per threshold
            # the sample newly reaches.
            reached = np.searchsorted(thresholds, sample, side="right")
            for row in np.flatnonzero(reached > crossed).tolist():
                for _ in range(reached[row] - crossed[row]):
                    recruit(row, now)
                crossed[row] = reached[row]

    totals = np.cumsum(received, axis=1)[:, -1].tolist()
    per_row = np.array(columns).reshape(len(times), n).T.tolist()
    return [
        FloodRun(list(zip(times, per_row[row])), totals[row],
                 servers_used[row])
        for row in range(n)
    ]
