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
  yet recruited holds ``+0.0`` demand and rate, which leaves every sum
  unchanged.
* **One clock.**  Every row steps and samples on the same ``now``,
  accumulated once per bank by ``now += _STEP_S`` as the session
  accumulates it.  Every row's access capacity at every tick is read
  once per bank into a ``(ticks, rows)`` table.
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
* **Reused buffers.**  At a handful of rows, a tick's cost is the
  number of numpy calls it makes, not their arithmetic.  So a tick
  allocates nothing: every array operation writes into buffers the
  bank allocates once, and a round end gathers its lanes' inputs with
  one ``take``.

A bank models no fault plan (server outages are the session's job) and
raises ``ValueError`` for an environment that carries one.  It also
raises ``ValueError`` for environments that share an RNG (the same
environment twice, or environments built from one generator): the bank
would interleave their draws, which sequential sessions take in blocks.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

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

#: The links of a row's star: link 0 is the access link, which every
#: lane crosses; link ``1 + k`` is the uplink of the row's ``k``-th
#: server, which its lanes ``CONNECTIONS_PER_SERVER * k + i`` cross.
_LINKS = 1 + MAX_SERVERS

#: ``1.0`` where a lane (row) crosses a link (column).  A 0/1 mask's
#: product with it counts each link's lanes: sums of a few ones are
#: exact in whatever order the product adds them.
_LANE_LINKS = np.hstack([
    np.ones((_LANES, 1)),
    np.repeat(np.eye(MAX_SERVERS), CONNECTIONS_PER_SERVER, axis=0),
])

# A lane's float state: one (rows, lanes) plane each of one stack, so
# that a round end gathers the planes from _ROUND_BYTES on with one take.
_SINCE, _ROUND_BYTES, _BPS, _QUEUE, _BACKLOG, _NECK, _RTT = range(7)

# Dividing by 8 is a power-of-two scaling, which commutes with rounding,
# so `x * 1000000 / 8` (mbps_to_bytes_per_s; `1e6 / 8` of a window or a
# BDP in bytes) is `x * 125000.0` and `x * MSS_BYTES * 8` is
# `x * (MSS_BYTES * 8)`, bit for bit.
_BYTES_PER_S_PER_MBPS = 125000.0
_BITS_PER_PKT = MSS_BYTES * 8


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


def _clock(duration_s: float) -> List[float]:
    """The session's clock: ``0.0``, then ``now += _STEP_S`` until
    ``now`` reaches ``duration_s``.  Tick ``k`` runs from ``clock[k]``
    to ``clock[k + 1]``; the last entry is the first not below
    ``duration_s``."""
    clock = [0.0]
    while clock[-1] < duration_s:
        clock.append(clock[-1] + _STEP_S)
    return clock


def _access_capacities(
    envs: Sequence[TestEnvironment], times: Sequence[float]
) -> np.ndarray:
    """Every row's access capacity at every time, ``(times, rows)``:
    ``envs[row].access.trace.capacity_at(times[k])`` bit for bit.

    :class:`FluctuatingTrace` rows whose grids wrap on the same duration
    read them in one :func:`grid_positions` and :func:`interpolate`
    pass, whose elementwise ufuncs round as ``capacity_at`` does; any
    other trace reads every time through its own ``capacities_at``.
    """
    table = np.empty((len(times), len(envs)))
    by_duration: Dict[float, List[int]] = {}
    for row, env in enumerate(envs):
        trace = env.access.trace
        if type(trace) is FluctuatingTrace:
            by_duration.setdefault(trace.duration_s, []).append(row)
        else:
            table[:, row] = trace.capacities_at(times)
    for duration, rows in by_duration.items():
        grids = np.array([envs[row].access.trace.grid for row in rows])
        lo, hi, frac = grid_positions(times, duration, grids.shape[1])
        table[:, rows] = interpolate(grids, lo, hi, frac).T
    return table


def _by_server(lanes: np.ndarray) -> np.ndarray:
    """A ``(rows, lanes)`` array viewed as ``(rows, servers,
    connections)``."""
    return lanes.reshape(len(lanes), MAX_SERVERS, CONNECTIONS_PER_SERVER)


class _Filling:
    """:meth:`Network.allocate` on every row's star at once, in buffers
    that one bank reuses at every tick."""

    def __init__(self, n: int):
        shape = (n, _LANES)
        self.rate = np.empty(shape)
        self.scratch = np.empty(shape)
        self.tightest = np.empty(shape)
        self.unfrozen = np.empty(shape, dtype=bool)
        self.kept = np.empty(shape, dtype=bool)
        # Each link's unfrozen lanes, counted from a 0/1 copy of the
        # mask, and whether it has any.
        self.ones = np.empty(shape)
        self.sharing = np.empty((n, _LINKS))
        self.shared = np.empty((n, _LINKS), dtype=bool)
        self.room = np.empty((n, _LINKS))
        # A pass's bounds on its increment: each link's room split
        # evenly over its unfrozen lanes, then each unfrozen lane's
        # headroom below its demand; +inf where nothing binds.
        self.bounds = np.empty((n, _LINKS + _LANES))
        self.step = np.empty(n)
        self.froze = np.empty(n, dtype=bool)

    def allocate(
        self, demand: np.ndarray, capacity: np.ndarray
    ) -> np.ndarray:
        """The rate of every lane, for ``demand`` per lane and
        ``capacity`` per row and link.  The result is a buffer that the
        next call overwrites.

        A row fills while it has unfrozen lanes: the pass that freezes
        none of them ends its filling by freezing them all, and a row
        with no unfrozen lane grows no further.  Filling ends when no
        lane is left unfrozen.
        """
        rate, scratch, tightest = self.rate, self.scratch, self.tightest
        unfrozen, kept, ones = self.unfrozen, self.kept, self.ones
        sharing, shared, bounds = self.sharing, self.shared, self.bounds
        step, froze = self.step, self.froze
        split, headroom = bounds[:, :_LINKS], bounds[:, _LINKS:]

        rate.fill(0.0)
        np.greater(demand, 0, out=unfrozen)
        # Every load is 0.0 before the first pass.
        room = capacity
        while np.count_nonzero(unfrozen):
            np.copyto(ones, unfrozen)
            ones.dot(_LANE_LINKS, out=sharing)
            np.greater(sharing, 0, out=shared)
            bounds.fill(np.inf)
            np.divide(room, sharing, out=split, where=shared)
            np.subtract(demand, rate, out=headroom, where=unfrozen)
            np.minimum.reduce(bounds, axis=1, out=step)
            np.maximum(step, 0.0, out=step)
            np.add(rate, step[:, None], out=rate, where=unfrozen)

            # Each link's room: its capacity less its lanes' rates,
            # added left to right.
            room = self.room
            np.add.accumulate(rate, axis=1, out=scratch)
            np.subtract(capacity[:, 0], scratch[:, -1], out=room[:, 0])
            np.add.accumulate(
                _by_server(rate), axis=2, out=_by_server(scratch)
            )
            np.subtract(
                capacity[:, 1:], _by_server(scratch)[..., -1],
                out=room[:, 1:],
            )
            # A lane freezes when its demand is met or either of its
            # links is full, to within epsilon: when the least of its
            # headroom and its links' room is.
            np.minimum(
                room[:, :1, None], room[:, 1:, None],
                out=_by_server(tightest),
            )
            np.subtract(demand, rate, out=scratch)
            np.minimum(tightest, scratch, out=tightest)
            np.greater(tightest, _EPSILON, out=kept)
            np.logical_and(kept, unfrozen, out=kept)
            if not np.count_nonzero(kept):
                break
            # The lanes this pass froze, then whether each row froze any.
            np.not_equal(unfrozen, kept, out=unfrozen)
            np.logical_or.reduce(unfrozen, axis=1, out=froze)
            np.logical_and(kept, froze[:, None], out=unfrozen)
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
    state = np.zeros((_RTT + 1,) + shape)
    since, round_bytes, bps, queue, backlog, neck, rtt = state
    # Until recruited, a lane's RTT is 1.0, so its demand stays 0.0,
    # and its round clock reads -inf, so it never ends a round.
    rtt.fill(1.0)
    since.fill(-np.inf)
    gathered = state[_ROUND_BYTES:].reshape(_RTT + 1 - _ROUND_BYTES, -1)
    win = np.zeros(shape)
    received = np.zeros(shape)
    demand = np.empty(shape)
    inflight = np.empty(shape)
    delivered = np.empty(shape)
    due = np.empty(shape)
    moving = np.empty(shape, dtype=bool)
    ends = np.empty(shape, dtype=bool)
    # Each row's link capacities: the access link's, set from the table
    # at every tick, then each server's uplink, +inf until recruited.
    capacity = np.full((n, _LINKS), np.inf)
    filling = _Filling(n)
    # The congestion control of a row's lane, at row * _LANES + lane.
    ccs = [None] * (n * _LANES)
    ranked = [env.servers_by_rtt()[:MAX_SERVERS] for env in envs]
    servers_used = [0] * n
    rngs = [env.rng for env in envs]
    loss_rates = [env.loss_rate for env in envs]

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
        since[row, lanes] = 0.0
        capacity[row, 1 + k] = server.uplink.capacity_at(now)
        servers_used[row] = k + 1

    for row in range(n):
        recruit(row, 0.0)
    clock = _clock(duration_s)
    access = _access_capacities(envs, clock[:-1])
    thresholds = np.array(escalation_thresholds())
    crossed = np.zeros(n, dtype=np.int64)
    slice_start = np.zeros(n)
    times: List[float] = []
    columns: List[np.ndarray] = []
    next_sample_at = SAMPLE_INTERVAL_S
    for tick, now in enumerate(clock[1:]):
        capacity[:, 0] = access[tick]
        # TcpConnection.demand_mbps, every lane at once.
        np.multiply(win, _BITS_PER_PKT, out=demand)
        np.divide(demand, rtt, out=demand)
        np.divide(demand, 1e6, out=demand)
        rate = filling.allocate(demand, capacity)

        # TcpConnection.post_allocate, every lane at once.
        np.multiply(rate, _BYTES_PER_S_PER_MBPS, out=bps)
        np.multiply(bps, _STEP_S, out=delivered)
        np.add(received, delivered, out=received)
        np.add(round_bytes, delivered, out=round_bytes)
        # The backlog: bytes in flight beyond the pipe.
        np.multiply(demand, _BYTES_PER_S_PER_MBPS, out=inflight)
        np.multiply(inflight, rtt, out=inflight)
        np.multiply(bps, rtt, out=backlog)
        np.subtract(inflight, backlog, out=backlog)
        np.maximum(0.0, backlog, out=backlog)
        np.greater(rate, 0, out=moving)
        queue.fill(0.0)
        np.divide(backlog, bps, out=queue, where=moving)
        np.add(since, _STEP_S, out=since)
        np.add(rtt, queue, out=due)
        np.greater_equal(since, due, out=ends)
        # Flat C-order positions: (row, lane) order, row-major.
        spots = np.flatnonzero(ends)
        if spots.size:
            # Each lane's path bottleneck, for its BDP.
            np.minimum(
                capacity[:, :1, None], capacity[:, 1:, None],
                out=_by_server(neck),
            )
            wins = []
            for spot, bytes_, bps_, delay, pending, neck_, min_rtt in zip(
                spots.tolist(), *gathered.take(spots, axis=1).tolist()
            ):
                row = spot // _LANES
                cc = ccs[spot]
                cc.on_round(RoundOutcome(
                    delivered_pkts=bytes_ / MSS_BYTES,
                    delivery_rate_pps=bps_ / MSS_BYTES,
                    # A flood's connections keep the default buffer
                    # factor, 1.0.
                    congestion_loss=pending > max(
                        neck_ * _BYTES_PER_S_PER_MBPS * min_rtt,
                        _MIN_BUFFER_BYTES,
                    ),
                    spurious_loss=rngs[row].random() < loss_rates[row],
                    queue_delay_s=delay,
                    min_rtt_s=min_rtt,
                ))
                wins.append(cc.demand_pkts_per_rtt())
            win.put(spots, wins)
            since.put(spots, 0.0)
            round_bytes.put(spots, 0.0)

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
