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
    for capacity in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="capacity"):
            run_loopback_session(make_model(), capacity_mbps=capacity)


def test_loopback_closes_session_on_convergence():
    result = run_loopback_session(make_model(), capacity_mbps=60.0)
    # The FIN reached the server: the session is CLOSED and no longer
    # counted as active.
    assert result.server.sessions[1].state is SessionState.CLOSED
    assert result.server.active_sessions() == 0
    assert result.server.sessions[1].bytes_sent > 0
