"""Baseline BTS services end-to-end over the testbed."""

import numpy as np
import pytest

from repro.baselines.btsapp import BtsApp, PROBE_DURATION_S
from repro.baselines.common import TestOutcome
from repro.baselines.driver import (
    NoReachableServerError,
    TcpFloodSession,
    escalation_thresholds,
    ping_phase_duration,
)
from repro.baselines.fast import FastCom
from repro.baselines.fastbts import FastBTS
from repro.baselines.speedtest import SpeedtestLike
from repro.netsim.faults import outage_plan
from repro.testbed.env import make_environment


def env_with(bw=100.0, seed=1, **kwargs):
    defaults = dict(n_servers=10, server_capacity_mbps=1000.0)
    defaults.update(kwargs)
    return make_environment(bw, rng=np.random.default_rng(seed), **defaults)


def test_escalation_thresholds_start_as_speedtest():
    ladder = escalation_thresholds()
    assert ladder[:2] == [25.0, 35.0]
    assert ladder == sorted(ladder)


def test_ping_phase_duration_sums_nearest():
    env = env_with()
    nearest = env.servers_by_rtt()[:3]
    assert ping_phase_duration(env, 3) == pytest.approx(
        sum(s.rtt_s for s in nearest)
    )


def test_flood_session_samples_every_50ms():
    env = env_with(bw=50.0)
    session = TcpFloodSession(env)
    samples = session.run(1.0)
    assert len(samples) == 20
    times = [t for t, _ in samples]
    assert np.allclose(np.diff(times), 0.05, atol=1e-9)


def test_flood_session_recruits_servers_on_thresholds():
    env = env_with(bw=500.0)
    session = TcpFloodSession(env)
    session.run(3.0)
    assert session.servers_used > 1


def test_flood_session_slow_link_keeps_one_server():
    env = env_with(bw=10.0)
    session = TcpFloodSession(env)
    session.run(2.0)
    assert session.servers_used == 1


def test_flood_session_stop_check_ends_early():
    env = env_with(bw=100.0)
    session = TcpFloodSession(env)
    samples = session.run(10.0, stop_check=lambda s: len(s) >= 10)
    assert len(samples) == 10


def test_flood_session_validation():
    env = env_with()
    with pytest.raises(ValueError):
        TcpFloodSession(env, connections_per_server=0)
    with pytest.raises(ValueError):
        TcpFloodSession(env, max_servers=0)
    with pytest.raises(ValueError):
        TcpFloodSession(env).run(0.0)


def test_btsapp_duration_and_accuracy():
    result = BtsApp().run(env_with(bw=100.0))
    assert result.duration_s == PROBE_DURATION_S
    assert len(result.samples) == 200
    assert result.bandwidth_mbps == pytest.approx(100.0, rel=0.10)


def test_btsapp_data_usage_scales_with_bandwidth():
    slow = BtsApp().run(env_with(bw=50.0))
    fast = BtsApp().run(env_with(bw=400.0))
    assert fast.bytes_used > 4 * slow.bytes_used


def test_speedtest_runs_15s():
    result = SpeedtestLike().run(env_with(bw=80.0))
    assert result.duration_s == 15.0
    assert result.bandwidth_mbps == pytest.approx(80.0, rel=0.10)


def test_fast_converges_and_is_reasonable():
    result = FastCom().run(env_with(bw=100.0))
    assert 7.5 <= result.duration_s <= 30.0
    assert result.bandwidth_mbps == pytest.approx(100.0, rel=0.15)


def test_fastbts_is_light():
    result = FastBTS().run(env_with(bw=100.0))
    btsapp = BtsApp().run(env_with(bw=100.0))
    assert result.duration_s < btsapp.duration_s
    assert result.bytes_used < btsapp.bytes_used


def test_fastbts_premature_convergence_on_fast_links():
    """FastBTS's accuracy weakness (§5.3): on fast links with slow
    cubic ramps, it can lock onto a pre-saturation plateau.  Across
    seeds it underestimates on average at 800 Mbps."""
    estimates = [
        FastBTS().run(env_with(bw=800.0, seed=s)).bandwidth_mbps
        for s in range(8)
    ]
    assert min(estimates) < 700.0  # at least one severe underestimate
    assert np.mean(estimates) < 800.0


def test_all_services_report_samples_and_ping():
    for service in (BtsApp(), SpeedtestLike(), FastCom(), FastBTS()):
        result = service.run(env_with(bw=60.0))
        assert result.ping_s > 0
        assert len(result.samples) > 0
        assert result.service == service.name


def all_dead_env(**kwargs):
    env = env_with(**kwargs)
    env.faults = outage_plan({s.name: [(0.0, 100.0)] for s in env.servers})
    return env


def test_flood_session_raises_typed_error_when_pool_is_dead():
    """Every ranked candidate down at recruit time: a typed, diagnosable
    error — not the IndexError estimators used to hit on an empty
    sample list."""
    with pytest.raises(NoReachableServerError) as excinfo:
        TcpFloodSession(all_dead_env()).run(1.0)
    assert excinfo.value.n_candidates == 10
    assert "all 10 ranked candidate(s)" in str(excinfo.value)
    assert isinstance(excinfo.value, RuntimeError)  # old handlers still match


def test_all_flooding_services_fail_cleanly_on_dead_pool():
    """The services catch the typed error and report FAILED results."""
    for service in (BtsApp(), SpeedtestLike(), FastCom(), FastBTS()):
        result = service.run(all_dead_env())
        assert result.outcome is TestOutcome.FAILED, service.name
        assert not result.outcome.usable
        assert result.bandwidth_mbps == 0.0
        assert result.samples == []
        assert "NoReachableServerError" in result.meta["error"]


FLOOD_SERVICES = ("bts-app", "speedtest", "fast", "fastbts", "tcp-swiftest")


@pytest.mark.parametrize("name", FLOOD_SERVICES)
def test_flood_services_check_cc_name_at_construction(name):
    """A misspelt algorithm fails when the service is built, not in
    every row's run (where a campaign would retry and quarantine it)."""
    from repro.core.variants import create_bandwidth_test

    with pytest.raises(ValueError, match="unknown congestion control"):
        create_bandwidth_test(name, cc_name="cubik")
    for cc_name in ("reno", "cubic", "bbr"):
        assert create_bandwidth_test(name, cc_name=cc_name).cc_name == cc_name
