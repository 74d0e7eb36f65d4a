"""Packet-level protocol loopback sessions."""

import pytest

from repro.core.gmm import GaussianMixture1D
from repro.core.loopback import run_loopback_session
from repro.core.registry import TechnologyModel
from repro.core.server import SessionState


def make_model(means=(100.0, 300.0, 600.0), weights=(0.6, 0.3, 0.1)):
    mixture = GaussianMixture1D(
        weights=weights, means=means, sigmas=tuple(10.0 for _ in means)
    )
    return TechnologyModel(tech="5G", mixture=mixture, n_samples=1000)


def test_loopback_converges_below_first_mode():
    result = run_loopback_session(make_model(), capacity_mbps=60.0)
    # Packet quantisation rounds to whole packets per 50 ms.
    assert result.bandwidth_mbps == pytest.approx(60.0, rel=0.05)
    assert result.rate_commands == [100.0]
    assert result.packets_dropped > 0  # commanded 100 > capped 60


def test_loopback_ladders_up_for_fast_client():
    result = run_loopback_session(make_model(), capacity_mbps=450.0)
    assert result.bandwidth_mbps == pytest.approx(450.0, rel=0.05)
    assert result.rate_commands[0] == 100.0
    assert max(result.rate_commands) >= 600.0


def test_loopback_no_drops_when_server_is_the_limit():
    result = run_loopback_session(
        make_model(), capacity_mbps=1000.0, server_capacity_mbps=80.0
    )
    # The server clamps to its uplink; nothing exceeds the access cap.
    assert result.packets_dropped == 0
    assert result.bandwidth_mbps == pytest.approx(80.0, rel=0.05)


def test_loopback_duration_is_sub_5s():
    result = run_loopback_session(make_model(), capacity_mbps=250.0)
    assert result.duration_s <= 5.0
    assert result.samples, "samples must be collected"
    times = [t for t, _ in result.samples]
    assert times == sorted(times)


def test_loopback_validation():
    with pytest.raises(ValueError):
        run_loopback_session(make_model(), capacity_mbps=0.0)


def test_loopback_closes_session_on_convergence():
    result = run_loopback_session(make_model(), capacity_mbps=60.0)
    # The FIN reached the server: the session is CLOSED and no longer
    # counted as active.
    assert result.server.sessions[1].state is SessionState.CLOSED
    assert result.server.active_sessions() == 0
    assert result.server.sessions[1].bytes_sent > 0


@pytest.mark.parametrize("capacity", [30.0, 60.0, 250.0, 450.0, 1000.0])
def test_vectorized_interval_loop_is_bit_identical(capacity):
    """The numpy fast path replaces per-packet object churn with a
    counting identity; every observable — estimate, samples, ladder,
    drop accounting, server byte counters — must match the legacy loop
    exactly, not approximately."""
    legacy = run_loopback_session(
        make_model(), capacity_mbps=capacity, mode="oracle"
    )
    fast = run_loopback_session(
        make_model(), capacity_mbps=capacity, mode="vectorized"
    )
    assert fast.bandwidth_mbps == legacy.bandwidth_mbps
    assert fast.duration_s == legacy.duration_s
    assert fast.samples == legacy.samples
    assert fast.rate_commands == legacy.rate_commands
    assert fast.packets_delivered == legacy.packets_delivered
    assert fast.packets_dropped == legacy.packets_dropped
    assert fast.outcome is legacy.outcome
    assert (
        fast.server.sessions[1].bytes_sent
        == legacy.server.sessions[1].bytes_sent
    )


def test_vectorized_is_the_default_without_faults():
    # mode=None coerces to 'auto', which selects the fast path when no
    # data-plane faults are present; explicit 'vectorized' agrees.
    auto = run_loopback_session(make_model(), capacity_mbps=120.0)
    fast = run_loopback_session(
        make_model(), capacity_mbps=120.0, mode="vectorized"
    )
    assert auto.samples == fast.samples


def test_vectorized_refuses_data_plane_faults():
    from repro.netsim.faults import FaultInjector, IIDLoss
    import numpy as np

    faults = FaultInjector(
        np.random.default_rng(1), loss=IIDLoss(0.1, np.random.default_rng(1))
    )
    with pytest.raises(ValueError):
        run_loopback_session(
            make_model(), capacity_mbps=60.0,
            data_faults=faults, mode="vectorized",
        )

