"""Swiftest design-choice variants."""

import numpy as np
import pytest

from repro.core.client import SwiftestClient, SwiftestConfig
from repro.core.gmm import GaussianMixture1D
from repro.core.loopback import run_loopback_session
from repro.core.probing import ProbingController
from repro.core.protocol import DATA_PAYLOAD_BYTES
from repro.core.registry import BandwidthModelRegistry, TechnologyModel
from repro.core.variants import (
    BandwidthTest,
    FixedLadderModel,
    LoopbackSwiftest,
    TcpSwiftest,
    _BANDWIDTH_TESTS,
    bandwidth_test_names,
    create_bandwidth_test,
    register_bandwidth_test,
)
from repro.testbed.env import make_environment
from repro.units import SAMPLE_INTERVAL_S


def test_fixed_ladder_rungs():
    ladder = FixedLadderModel(start_mbps=25.0, step_factor=2.0, top_mbps=100.0)
    assert ladder.initial_rate_mbps() == 25.0
    assert ladder.next_rate_mbps(25.0) == 50.0
    assert ladder.next_rate_mbps(100.0) is None
    assert ladder.ladder() == [25.0, 50.0, 100.0]


def test_fixed_ladder_validation():
    with pytest.raises(ValueError):
        FixedLadderModel(start_mbps=0.0)
    with pytest.raises(ValueError):
        FixedLadderModel(step_factor=1.0)
    # inf never ends the ladder, and NaN is no top at all.
    for top in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            FixedLadderModel(top_mbps=top)


def test_fixed_ladder_plugs_into_controller():
    ctrl = ProbingController(FixedLadderModel())
    assert ctrl.rate_mbps == 25.0
    for _ in range(3):
        ctrl.on_sample(25.0)  # keeping up
    assert ctrl.rate_mbps == 37.5


def test_fixed_ladder_takes_more_rungs_than_guided():
    """The ablation's claim at unit scale: for a 400 Mbps client, the
    guided model starts near the answer; the fixed ladder climbs."""
    mixture = GaussianMixture1D(
        weights=(0.6, 0.4), means=(300.0, 600.0), sigmas=(30.0, 60.0)
    )
    reg = BandwidthModelRegistry()
    reg._models["5G"] = TechnologyModel(tech="5G", mixture=mixture, n_samples=500)

    env_guided = make_environment(
        400.0, rng=np.random.default_rng(1), tech="5G",
        server_capacity_mbps=100.0,
    )
    guided = SwiftestClient(reg).run(env_guided)

    class FixedRegistry(BandwidthModelRegistry):
        def model(self, tech):
            return FixedLadderModel()

    env_fixed = make_environment(
        400.0, rng=np.random.default_rng(1), tech="5G",
        server_capacity_mbps=100.0,
    )
    fixed = SwiftestClient(FixedRegistry()).run(env_fixed)
    assert len(guided.rungs_visited) < len(fixed.rungs_visited)
    assert guided.bandwidth_mbps == pytest.approx(400.0, rel=0.08)
    assert fixed.bandwidth_mbps == pytest.approx(400.0, rel=0.08)


def test_tcp_swiftest_runs_and_is_reasonable():
    env = make_environment(
        120.0, rng=np.random.default_rng(2), tech="5G",
        server_capacity_mbps=1000.0,
    )
    result = TcpSwiftest().run(env)
    assert result.bandwidth_mbps == pytest.approx(120.0, rel=0.15)
    assert result.service == "tcp-swiftest"
    assert result.meta["transport"] == "tcp"


def test_tcp_swiftest_slower_than_udp_on_high_bdp_paths(registry):
    """§7's argument concerns high bandwidth-delay-product paths: the
    TCP ramp spans many samples there, delaying the 3% convergence
    rule, while UDP's commanded rate is RTT-insensitive.  (On
    low-RTT paths the fluid TCP model ramps within one sample and the
    two variants tie.)"""
    kwargs = dict(
        tech="5G", server_capacity_mbps=100.0,
        rtt_range_s=(0.060, 0.120), fluctuation_sigma=0.04,
    )
    udp_total, tcp_total = 0.0, 0.0
    for seed in range(4):
        env_udp = make_environment(
            600.0, rng=np.random.default_rng(seed), **kwargs
        )
        udp_total += SwiftestClient(registry).run(env_udp).duration_s
        env_tcp = make_environment(
            600.0, rng=np.random.default_rng(seed), **kwargs
        )
        tcp_total += TcpSwiftest().run(env_tcp).duration_s
    assert udp_total < tcp_total


def test_custom_convergence_threshold_config(registry):
    loose = SwiftestClient(
        registry, SwiftestConfig(convergence_threshold=0.2)
    )
    env = make_environment(
        200.0, rng=np.random.default_rng(4), tech="5G",
        server_capacity_mbps=100.0, fluctuation_sigma=0.08,
    )
    result = loose.run(env)
    assert result.converged
    with pytest.raises(ValueError):
        SwiftestClient(registry, SwiftestConfig(convergence_threshold=0.0)).run(env)


# -- the BandwidthTest registry -----------------------------------------


def test_registry_lists_every_builtin_test():
    names = bandwidth_test_names()
    assert names == sorted(names)
    for expected in (
        "bts-app", "fast", "fastbts", "speedtest",
        "swiftest", "swiftest-loopback", "tcp-swiftest",
    ):
        assert expected in names


def test_created_tests_satisfy_the_protocol():
    for name in ("bts-app", "fast", "fastbts", "speedtest", "tcp-swiftest"):
        service = create_bandwidth_test(name)
        assert isinstance(service, BandwidthTest)
        assert service.name == name


def test_create_forwards_constructor_kwargs(registry):
    service = create_bandwidth_test("swiftest", registry=registry)
    assert service.registry is registry
    loopback = create_bandwidth_test("swiftest-loopback", max_duration_s=2.5)
    assert loopback.max_duration_s == 2.5


def test_create_unknown_name_lists_alternatives():
    with pytest.raises(KeyError) as excinfo:
        create_bandwidth_test("warp-drive")
    assert "bts-app" in str(excinfo.value)


def test_register_custom_test_then_create():
    class Custom:
        name = "custom-test"

        def run(self, env):
            raise NotImplementedError

    register_bandwidth_test("custom-test", Custom)
    try:
        assert isinstance(create_bandwidth_test("custom-test"), Custom)
        assert "custom-test" in bandwidth_test_names()
    finally:
        _BANDWIDTH_TESTS.pop("custom-test", None)


def test_loopback_swiftest_runs_as_a_service():
    env = make_environment(
        150.0, rng=np.random.default_rng(6), tech="5G",
        server_capacity_mbps=1000.0,
    )
    result = LoopbackSwiftest().run(env)
    assert result.service == "swiftest-loopback"
    assert result.bandwidth_mbps == pytest.approx(150.0, rel=0.10)
    assert result.outcome.usable
    assert result.ping_s > 0
    assert result.bytes_used > 0


def test_loopback_swiftest_matches_the_per_packet_session(registry):
    """A run is a one-session bank: every field it reports equals the
    per-packet loop's on the same capacity, server and budget."""
    for model in (FixedLadderModel(), registry.model("5G")):
        for seed, capacity in ((6, 150.0), (7, 33.0), (8, 420.0)):
            env = make_environment(
                capacity, rng=np.random.default_rng(seed), tech="5G",
                server_capacity_mbps=1000.0,
            )
            service = LoopbackSwiftest(model=model, max_duration_s=4.0)
            result = service.run(env)
            ref = run_loopback_session(
                model,
                env.true_mean_capacity(0.0, 4.0),
                server_capacity_mbps=1000.0,
                max_duration_s=4.0,
            )
            assert result.bandwidth_mbps == ref.bandwidth_mbps
            assert result.duration_s == ref.duration_s
            assert result.bytes_used == (
                ref.packets_delivered * DATA_PAYLOAD_BYTES
            )
            assert result.samples == ref.samples
            assert result.meta["rate_commands"] == len(ref.rate_commands)
            assert result.outcome is ref.outcome


def test_loopback_swiftest_validation():
    for budget in (SAMPLE_INTERVAL_S, 0.0, -1.0):
        with pytest.raises(ValueError, match="interval"):
            LoopbackSwiftest(max_duration_s=budget)
