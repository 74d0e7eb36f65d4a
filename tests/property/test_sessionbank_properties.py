"""Property-based tests of the session bank's oracle contract.

The bank promises three invariances, each checked here under random
capacity draws:

* **oracle identity** — every session's full result equals the
  per-packet ``run_loopback_session`` result;
* **bank-size invariance** — partitioning the same sessions into
  banks of any width reproduces the same bytes (widths 1, 7, 64 and
  4096 cover degenerate, odd, CI-sized and production-sized banks);
* **row-order invariance** — permuting the sessions permutes the
  results and changes nothing else.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.loopback import run_loopback_session
from repro.core.sessionbank import run_session_bank
from repro.core.variants import FixedLadderModel

MODEL = FixedLadderModel()
SERVER_MBPS = 1_000.0


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


def capacities_from(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1_500.0, n)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=10, deadline=None)
def test_bank_equals_per_packet_oracle(seed, n):
    capacities = capacities_from(seed, n)
    bank = run_session_bank(
        MODEL, capacities, server_capacity_mbps=SERVER_MBPS
    )
    for i in range(n):
        ref = run_loopback_session(
            MODEL,
            float(capacities[i]),
            server_capacity_mbps=SERVER_MBPS,
        )
        assert bank_fields(bank, i) == (
            ref.bandwidth_mbps,
            ref.duration_s,
            ref.packets_delivered,
            ref.packets_dropped,
            len(ref.rate_commands),
            ref.outcome,
            ref.rate_commands,
            ref.samples,
        )


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=8, deadline=None)
def test_bank_size_invariance(seed):
    """Widths {1, 7, 64, 4096} over the same 96 sessions all agree."""
    capacities = capacities_from(seed, 96)
    reference = run_session_bank(
        MODEL, capacities, server_capacity_mbps=SERVER_MBPS
    )
    for width in (1, 7, 64, 4096):
        for lo in range(0, len(capacities), width):
            sub = run_session_bank(
                MODEL,
                capacities[lo:lo + width],
                server_capacity_mbps=SERVER_MBPS,
            )
            for k in range(len(sub)):
                assert bank_fields(sub, k) == bank_fields(reference, lo + k)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    perm_seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=8, deadline=None)
def test_row_order_invariance(seed, perm_seed):
    capacities = capacities_from(seed, 48)
    reference = run_session_bank(
        MODEL, capacities, server_capacity_mbps=SERVER_MBPS
    )
    perm = np.random.default_rng(perm_seed).permutation(len(capacities))
    shuffled = run_session_bank(
        MODEL, capacities[perm], server_capacity_mbps=SERVER_MBPS
    )
    for pos in range(len(capacities)):
        assert bank_fields(shuffled, pos) == bank_fields(
            reference, int(perm[pos])
        )
