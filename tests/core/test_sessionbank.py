"""Batched session bank vs the per-session Swiftest oracle.

The bank's contract is the dataset engine's oracle contract applied to
the probing loop: for fault-free loopback sessions on a ladder, fixed
or fitted, ``run_session_bank`` must reproduce ``run_loopback_session``
**byte for byte** — same float estimate, same integer packet counters,
same commanded-rate list, same 50 ms sample stream, same outcome — for
every session, at any bank size, in any row order.
"""

import numpy as np
import pytest

from repro.baselines.common import TestOutcome
from repro.core.loopback import run_loopback_session
from repro.core.sessionbank import (
    SessionBank,
    run_session_bank,
    tick_times,
)
from repro.core.variants import FixedLadderModel
from repro.units import SAMPLE_INTERVAL_S

#: Capacities chosen to hit every controller regime: hold on the
#: bottom rung, converge mid-ladder, straddle a rung boundary, escape
#: past the ladder top, and be limited by the server instead.
EDGE_CAPACITIES = [
    0.01,        # ~zero goodput, timeout path
    5.0,         # far below the first rung
    24.99,       # just under the initial rate
    25.01,       # just over the initial rate
    37.5,        # exactly rung 2 (25 * 1.5)
    189.84375,   # exactly a high rung
    450.0,       # mid-ladder
    2_000.0,     # near the ladder top
    12_000.0,    # beyond the server cap: escape regime
]


def oracle_fields(result):
    return (
        result.bandwidth_mbps,
        result.duration_s,
        result.packets_delivered,
        result.packets_dropped,
        len(result.rate_commands),
        result.outcome,
        result.rate_commands,
        result.samples,
    )


def bank_fields(bank, i):
    return (
        float(bank.bandwidth_mbps[i]),
        float(bank.duration_s[i]),
        int(bank.packets_delivered[i]),
        int(bank.packets_dropped[i]),
        int(bank.n_rate_commands[i]),
        bank.outcome(i),
        bank.rate_commands_for(i),
        bank.samples_for(i),
    )


@pytest.fixture(scope="module")
def model():
    return FixedLadderModel()


def test_bank_matches_per_packet_oracle(model, registry):
    """One bank over every edge capacity == N per-packet sessions, on
    the fixed ladder and on a fitted mixture's modal ladder."""
    for ladder in (model, registry.model("5G")):
        bank = run_session_bank(ladder, EDGE_CAPACITIES)
        for i, capacity in enumerate(EDGE_CAPACITIES):
            ref = run_loopback_session(
                ladder, capacity, server_capacity_mbps=10_000.0
            )
            assert bank_fields(bank, i) == oracle_fields(ref), (
                f"{ladder!r}: capacity {capacity} diverged"
            )


def test_bank_matches_random_capacities(model):
    """Random draws through both engines, field by field."""
    rng = np.random.default_rng(20220801)
    capacities = rng.uniform(1.0, 1_500.0, 32)
    bank = run_session_bank(model, capacities)
    for i, c in enumerate(capacities):
        ref = run_loopback_session(
            model, float(c), server_capacity_mbps=10_000.0
        )
        assert bank_fields(bank, i) == oracle_fields(ref)


def test_bank_respects_per_session_server_caps(model):
    """Heterogeneous server uplinks bank correctly: the wire-quantized
    pacing rate is capped per session, exactly like the scalar server."""
    capacities = [400.0, 400.0, 400.0]
    server_caps = [80.0, 300.0, 10_000.0]
    bank = run_session_bank(model, capacities, server_capacity_mbps=server_caps)
    for i in range(3):
        ref = run_loopback_session(
            model,
            capacities[i],
            server_capacity_mbps=server_caps[i],
        )
        assert bank_fields(bank, i) == oracle_fields(ref)
    # The 80 Mbps server is the bottleneck: nothing gets dropped.
    assert bank.packets_dropped[0] == 0


def test_bank_outcomes_are_converged_or_timeout(model):
    """Fault-free banks can only converge or time out; a timed-out
    session still yields a usable estimate (mean of its window)."""
    bank = run_session_bank(model, [0.01, 60.0])
    assert bank.outcome(0) is TestOutcome.TIMED_OUT
    assert bank.outcome(0).usable
    assert bank.outcome(1) is TestOutcome.CONVERGED
    assert bank.bandwidth_mbps[1] == pytest.approx(60.0, rel=0.05)


def test_tick_times_is_the_accumulated_clock():
    """Tick k is the scalar simulator's accumulated float clock, not
    ``k * 0.05`` — the IEEE-754 distinction the bank must preserve."""
    times = tick_times(5.0)
    t, accumulated = 0.0, []
    while True:
        t = t + SAMPLE_INTERVAL_S
        accumulated.append(t)
        if not (t + SAMPLE_INTERVAL_S < 5.0):
            break
    assert times == accumulated
    assert times[-1] + SAMPLE_INTERVAL_S >= 5.0


def test_bank_samples_share_the_scalar_timestamps(model):
    bank = run_session_bank(model, [60.0])
    ref = run_loopback_session(model, 60.0, server_capacity_mbps=10_000.0)
    assert [t for t, _ in bank.samples_for(0)] == [
        t for t, _ in ref.samples
    ]


def test_bank_validation(model):
    with pytest.raises(ValueError, match="non-empty"):
        SessionBank(model, [])
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            SessionBank(model, [10.0, bad])
        with pytest.raises(ValueError, match="server"):
            SessionBank(model, [10.0], server_capacity_mbps=bad)
    with pytest.raises(ValueError, match="interval"):
        SessionBank(model, [10.0], max_duration_s=SAMPLE_INTERVAL_S)

    class Endless:
        """A duck-typed ladder whose rungs never run out."""

        def __init__(self, step):
            self.step = step

        def initial_rate_mbps(self):
            return 25.0

        def next_rate_mbps(self, current):
            return self.step(current)

    # Doubling overflows to inf; a flat or falling step never tops out.
    for step in (lambda r: 2 * r, lambda r: r, lambda r: r / 2):
        with pytest.raises(ValueError, match="ladder"):
            SessionBank(Endless(step), [10.0])


def test_bank_len_and_arrays(model):
    bank = run_session_bank(model, [30.0, 60.0, 90.0])
    assert len(bank) == 3
    assert bank.bandwidth_mbps.shape == (3,)
    assert bank.sample_rates.shape == (3, len(bank.times))
    assert all(bank.n_samples > 0)
