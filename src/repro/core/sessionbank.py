"""Batched vectorized Swiftest sessions (oracle pattern, round 2).

:func:`repro.core.loopback.run_loopback_session` runs one probing
session per call, packet by packet: it builds, encodes and decodes
every DATA packet of every 50 ms interval, which is what makes it the
oracle and what makes it slow.  This module is the one engine for
every fault-free session: it runs **N sessions in lockstep** over
columnar state arrays, a campaign's rows thousands at a time
(:func:`repro.harness.runtime.iter_banked_rows`) and a single
:class:`~repro.core.variants.LoopbackSwiftest` run one session wide.
Every 50 ms tick is a handful of NumPy operations across the live
sessions — per-session ladder rung and commanded probing rate, the
wire-quantized server pacing rate, convergence-window statistics
(:class:`~repro.core.convergence.RollingConvergenceKernel`), the
loss-discounted saturation floor
(:func:`~repro.core.probing.saturation_floor`), and elapsed/duration
bookkeeping.  The state arrays hold live sessions only, so a tick
gathers and scatters nothing: a session's outputs are written by its
id when it converges or times out, and on a tick where some session
finished, one keep-mask compacts every array.  Every live session
pushes one sample per tick from tick 0, so the convergence ring
writes one shared column per tick, and the pacing term is recomputed
only when a session's rate changes.

The contract is the same one the dataset engine established in
``repro/dataset``: the per-session engine stays alive as the reference
oracle, and every bank result is **byte-identical** to
``run_loopback_session`` for the same inputs — same floats, same
integer counters, same sample streams — invariant to bank size and to
the order rows are packed into banks.  The equivalence is enforced by
``tests/core/test_sessionbank.py`` and the property suite
(``tests/property/test_sessionbank_properties.py``).

How bit-equality is achieved (the same playbook as PR 4):

* every elementwise float expression replicates the scalar code's
  operand order, so IEEE-754 gives the same result lane by lane
  (e.g. the pacing arithmetic ``rate * 1e6 / 8 * dt / payload``,
  evaluated once per rate change and added to the carry each tick, as
  the scalar server adds the same term);
* the tick clock is the scalar simulator's *accumulated* clock
  (``t += 0.05``), never ``k * 0.05``;
* commanded rates cross the "wire" through the same kbps quantization
  as :class:`~repro.core.protocol.RateCommand`
  (``trunc(rate * 1000) / 1000``), then the server cap applies;
* order-sensitive reductions at finish time — ``np.mean`` over the
  converged window, Python's left-to-right ``sum`` on timeout — are
  evaluated on the window *in push order*, exactly as the scalar
  detector's deque would yield it.

A bank cannot express data-plane or control-plane faults (those
sessions run the per-packet loop) or services other than the
loopback; one level up, :func:`repro.harness.runtime.executor_for`
sends campaigns of such services row by row instead (BTS-APP and
Speedtest through their own flood bank,
:mod:`repro.baselines.floodbank`).  A campaign row never carries a
fault plan, so every row of a bankable campaign is banked (see
:func:`repro.harness.runtime.iter_banked_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.common import TestOutcome
from repro.core.convergence import THRESHOLD, WINDOW, RollingConvergenceKernel
from repro.core.probing import (
    ESCAPE_FACTOR,
    MAX_LOSS_DISCOUNT,
    SATURATION_MARGIN,
    UNSATURATED_DWELL,
    saturation_floor,
)
from repro.core.protocol import DATA_PAYLOAD_BYTES
from repro.units import SAMPLE_INTERVAL_S

__all__ = ["BankResult", "SessionBank", "run_session_bank", "tick_times"]


def tick_times(max_duration_s: float) -> List[float]:
    """The 50 ms tick clock of a loopback session, replicated.

    The scalar engine schedules each tick relative to the previous one
    (``sim.now + SAMPLE_INTERVAL_S``), so tick k's timestamp is the
    *accumulated* float sum — subtly different, in IEEE-754, from
    ``k * SAMPLE_INTERVAL_S``.  The last tick is the one whose
    successor would land at or beyond ``max_duration_s``.
    """
    times: List[float] = []
    t = 0.0
    while True:
        t = t + SAMPLE_INTERVAL_S
        times.append(t)
        if not (t + SAMPLE_INTERVAL_S < max_duration_s):
            return times


def _ladder_rungs(model) -> np.ndarray:
    """The model's full base ladder as a float64 array.

    Built by iterating ``next_rate_mbps`` from the initial rate — the
    exact multiplication chain the scalar controller walks — so rung
    k+1 is bit-equal to what the controller would compute from rung k.
    A rung that does not rise, or is not finite, raises ``ValueError``:
    such a ladder might never reach its top, and this loop with it.
    """
    rungs = [float(model.initial_rate_mbps())]
    while True:
        nxt = model.next_rate_mbps(rungs[-1])
        if nxt is None:
            return np.asarray(rungs, dtype=np.float64)
        nxt = float(nxt)
        if not (nxt > rungs[-1] and math.isfinite(nxt)):
            raise ValueError(
                f"ladder rungs must rise to a finite top, got {nxt} "
                f"after {rungs[-1]}"
            )
        rungs.append(nxt)


def _pace(srv_rate: np.ndarray) -> np.ndarray:
    """Packets a server paced at ``srv_rate`` Mbps owes per interval,
    with the scalar server's operands in its order."""
    return srv_rate * 1e6 / 8 * SAMPLE_INTERVAL_S / DATA_PAYLOAD_BYTES


def _wire_rate(rate_mbps: np.ndarray, server_capacity: np.ndarray) -> np.ndarray:
    """A commanded rate as the server paces it: quantized to integer
    kbps on the wire (:class:`~repro.core.protocol.RateCommand` carries
    ``int(rate * 1000)``) and capped at the server's uplink."""
    return np.minimum(np.trunc(rate_mbps * 1000.0) / 1000.0, server_capacity)


@dataclass
class BankResult:
    """Columnar outcome of one :class:`SessionBank` run.

    Arrays are indexed by session position in the bank.  Field names
    mirror :class:`~repro.core.loopback.LoopbackResult`; the
    :meth:`samples_for` / :meth:`rate_commands_for` accessors
    reconstruct the per-session lists for identity checks against the
    scalar engine.
    """

    bandwidth_mbps: np.ndarray
    duration_s: np.ndarray
    packets_delivered: np.ndarray
    packets_dropped: np.ndarray
    n_rate_commands: np.ndarray
    converged: np.ndarray
    #: Ticks each session executed (its samples count).
    n_samples: np.ndarray
    #: Shared tick clock; sample k's timestamp is ``times[k] + 50 ms``
    #: computed the scalar way (== ``times[k + 1]`` when it exists).
    times: List[float] = field(repr=False, default_factory=list)
    #: (n_sessions, n_ticks) sample rates; row i is valid up to
    #: ``n_samples[i]``.
    sample_rates: np.ndarray = field(repr=False, default=None)
    #: Per-session commanded rates, in order (initial command first).
    rate_commands: List[List[float]] = field(repr=False, default_factory=list)

    def __len__(self) -> int:
        return len(self.bandwidth_mbps)

    def outcome(self, i: int) -> TestOutcome:
        """How session ``i`` concluded.  Banked sessions are fault-free
        by construction, so DEGRADED/FAILED cannot occur."""
        return (
            TestOutcome.CONVERGED if self.converged[i] else TestOutcome.TIMED_OUT
        )

    def samples_for(self, i: int) -> List[Tuple[float, float]]:
        """Session ``i``'s (time, Mbps) samples, as the scalar engine
        records them."""
        k = int(self.n_samples[i])
        return [
            (self.times[j] + SAMPLE_INTERVAL_S, float(self.sample_rates[i, j]))
            for j in range(k)
        ]

    def rate_commands_for(self, i: int) -> List[float]:
        return list(self.rate_commands[i])


class SessionBank:
    """N fault-free loopback Swiftest sessions stepped in lockstep.

    Parameters mirror :func:`~repro.core.loopback.run_loopback_session`
    (the per-session oracle): ``capacity_mbps`` is each session's
    access-link policer cap, ``server_capacity_mbps`` each session's
    server uplink, ``max_duration_s`` the shared probing budget.  The
    ``model`` must be a ladder (``initial_rate_mbps`` /
    ``next_rate_mbps`` rising to a finite top), shared by all sessions:
    a :class:`~repro.core.variants.FixedLadderModel` or a fitted
    :class:`~repro.core.registry.TechnologyModel`.  Capacities must be
    positive and finite (``ValueError`` otherwise), as the oracle's.
    """

    def __init__(
        self,
        model,
        capacity_mbps: Union[Sequence[float], np.ndarray],
        server_capacity_mbps: Union[float, Sequence[float], np.ndarray] = 10_000.0,
        max_duration_s: float = 5.0,
    ):
        self.capacity = np.ascontiguousarray(capacity_mbps, dtype=np.float64)
        if self.capacity.ndim != 1 or self.capacity.size == 0:
            raise ValueError("capacity_mbps must be a non-empty 1-D array")
        if not np.all((self.capacity > 0) & np.isfinite(self.capacity)):
            raise ValueError(
                "capacity must be positive and finite for every session"
            )
        n = self.capacity.size
        self.server_capacity = np.broadcast_to(
            np.asarray(server_capacity_mbps, dtype=np.float64), (n,)
        ).copy()
        if not np.all(
            (self.server_capacity > 0) & np.isfinite(self.server_capacity)
        ):
            raise ValueError("server capacity must be positive and finite")
        if max_duration_s <= SAMPLE_INTERVAL_S:
            raise ValueError(
                f"max_duration_s must exceed one interval, got {max_duration_s}"
            )
        self.model = model
        self.max_duration_s = float(max_duration_s)
        self.ladder = _ladder_rungs(model)
        self.n = n

    def run(self) -> BankResult:
        n = self.n
        times = tick_times(self.max_duration_s)
        n_ticks = len(times)
        ladder = self.ladder

        # Live state: lane j is session ids[j], and a lane exists only
        # while its session runs.  Finished sessions' lanes are dropped
        # by one keep-mask on the ticks where some session finished.
        ids = np.arange(n, dtype=np.int64)
        #: Packets the policer admits per interval (constant per
        #: session): int(capacity * 1e6 / 8 * dt / payload), truncated
        #: exactly as the scalar loop's int() does.
        budget = np.trunc(
            self.capacity * 1e6 / 8 * SAMPLE_INTERVAL_S / DATA_PAYLOAD_BYTES
        ).astype(np.int64)
        server_capacity = self.server_capacity
        # Controller state (commanded rate is *unquantized*; only the
        # server-side pacing rate crosses the kbps wire).
        cmd_rate = np.full(n, float(self.model.initial_rate_mbps()))
        rung_idx = np.zeros(n, dtype=np.int64)
        on_ladder = np.ones(n, dtype=bool)
        streak = np.zeros(n, dtype=np.int64)
        kernel = RollingConvergenceKernel(n, window=WINDOW, threshold=THRESHOLD)
        # Server-side pacing: packets due per interval at the paced
        # rate, recomputed only when a session's rate changes.
        pace = _pace(_wire_rate(cmd_rate, server_capacity))
        carry = np.zeros(n, dtype=np.float64)
        delivered_total = np.zeros(n, dtype=np.int64)
        dropped_total = np.zeros(n, dtype=np.int64)
        n_cmds = np.ones(n, dtype=np.int64)  # the initial RATE_COMMAND
        rate_commands: List[List[float]] = [
            [float(cmd_rate[0])] for _ in range(n)
        ]

        # Outputs, by session id, written when a session finishes
        # (sample_rates every tick).
        out_bw = np.zeros(n, dtype=np.float64)
        out_duration = np.zeros(n, dtype=np.float64)
        out_converged = np.zeros(n, dtype=bool)
        n_samples = np.zeros(n, dtype=np.int64)
        out_delivered = np.zeros(n, dtype=np.int64)
        out_dropped = np.zeros(n, dtype=np.int64)
        out_cmds = np.zeros(n, dtype=np.int64)
        sample_rates = np.zeros((n, n_ticks), dtype=np.float64)

        def finish(lanes, k: int, t: float) -> None:
            # Reads the live arrays as the tick has left them.
            done = ids[lanes]
            out_duration[done] = t
            n_samples[done] = k + 1
            out_delivered[done] = delivered_total[lanes]
            out_dropped[done] = dropped_total[lanes]
            out_cmds[done] = n_cmds[lanes]

        for k, t in enumerate(times):
            # -- emit: packets due this interval at the paced rate ------
            due = pace + carry
            whole = np.floor(due)
            carry = due - whole
            sent = whole.astype(np.int64)
            # -- police: the capacity cap drops the excess --------------
            delivered = np.minimum(sent, budget)
            dropped_total += sent - delivered
            delivered_total += delivered
            # -- sample: delivered goodput over the interval ------------
            rate = (
                delivered * DATA_PAYLOAD_BYTES * 8 / 1e6 / SAMPLE_INTERVAL_S
            )
            sample_rates[ids, k] = rate
            kernel.push(rate)
            # -- converge? ----------------------------------------------
            conv = kernel.converged()
            if conv.any():
                lanes = np.flatnonzero(conv)
                out_bw[ids[lanes]] = kernel.values(lanes)
                out_converged[ids[lanes]] = True
                finish(lanes, k, t)
                if lanes.size == ids.size:
                    break
                keep = ~conv
                kernel.compact(keep)
                (
                    ids, budget, server_capacity, cmd_rate, rung_idx,
                    on_ladder, streak, pace, carry, delivered_total,
                    dropped_total, n_cmds, sent, delivered, rate,
                ) = (
                    lane[keep] for lane in (
                        ids, budget, server_capacity, cmd_rate, rung_idx,
                        on_ladder, streak, pace, carry, delivered_total,
                        dropped_total, n_cmds, sent, delivered, rate,
                    )
                )
            # -- saturation test (loss-discounted floor) ----------------
            # A lane that sent nothing has loss 0: its ratio reads 1.
            ratio = np.divide(
                delivered, sent, out=np.ones(ids.size), where=sent > 0
            )
            loss = np.maximum(0.0, 1.0 - ratio)
            floor = saturation_floor(
                cmd_rate,
                np.minimum(loss, 0.99),
                saturation_margin=SATURATION_MARGIN,
                max_loss_discount=MAX_LOSS_DISCOUNT,
            )
            streak = np.where(rate < floor, 0, streak + 1)
            # -- ladder up after the dwell ------------------------------
            step = np.flatnonzero(streak >= UNSATURATED_DWELL)
            if step.size:
                streak[step] = 0
                nxt_idx = rung_idx[step] + 1
                climbs = on_ladder[step] & (nxt_idx < len(ladder))
                climbers = step[climbs]
                escapers = step[~climbs]
                cmd_rate[climbers] = ladder[nxt_idx[climbs]]
                rung_idx[climbers] = nxt_idx[climbs]
                cmd_rate[escapers] = cmd_rate[escapers] * ESCAPE_FACTOR
                on_ladder[escapers] = False
                kernel.reset(step)
                n_cmds[step] += 1
                pace[step] = _pace(
                    _wire_rate(cmd_rate[step], server_capacity[step])
                )
                for i, rate_mbps in zip(
                    ids[step].tolist(), cmd_rate[step].tolist()
                ):
                    rate_commands[i].append(rate_mbps)
            # -- timeout: this was the final tick -----------------------
            if k + 1 == n_ticks:
                for lane, i in enumerate(ids.tolist()):
                    window = kernel.ordered_window(lane).tolist()
                    out_bw[i] = (
                        sum(window) / len(window) if window else cmd_rate[lane]
                    )
                finish(slice(None), k, t)

        return BankResult(
            bandwidth_mbps=out_bw,
            duration_s=out_duration,
            packets_delivered=out_delivered,
            packets_dropped=out_dropped,
            n_rate_commands=out_cmds,
            converged=out_converged,
            n_samples=n_samples,
            times=times,
            sample_rates=sample_rates,
            rate_commands=rate_commands,
        )


def run_session_bank(
    model,
    capacity_mbps: Union[Sequence[float], np.ndarray],
    server_capacity_mbps: Union[float, Sequence[float], np.ndarray] = 10_000.0,
    max_duration_s: float = 5.0,
) -> BankResult:
    """Run N fault-free loopback sessions as one lockstep bank.

    One call, byte-identical to N calls of
    :func:`repro.core.loopback.run_loopback_session` with the same
    per-session inputs; see :class:`SessionBank`.
    """
    return SessionBank(
        model,
        capacity_mbps,
        server_capacity_mbps=server_capacity_mbps,
        max_duration_s=max_duration_s,
    ).run()
