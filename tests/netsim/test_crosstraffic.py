"""Cross-traffic sources on shared links."""

import numpy as np
import pytest

from repro.netsim.crosstraffic import (
    CrossTrafficSource,
    OnOffSource,
    attach_cross_traffic,
)
from repro.netsim.flow import Flow
from repro.netsim.link import Link
from repro.netsim.network import Network


def make_net(capacity=100.0):
    net = Network()
    link = net.add_link(Link(capacity, name="access"))
    return net, link


def test_on_off_source_validation():
    with pytest.raises(ValueError):
        OnOffSource(rate_mbps=0.0)
    with pytest.raises(ValueError):
        OnOffSource(rate_mbps=10.0, mean_on_s=0.0)


def test_source_demands_toggle_over_time(rng):
    net, link = make_net()
    xt = attach_cross_traffic(net, link, total_rate_mbps=40.0,
                              n_sources=4, rng=rng)
    loads = set()
    for step in range(400):
        xt.advance(step * 0.05)
        loads.add(round(xt.offered_load_mbps(), 1))
    # Demand takes several distinct values as sources toggle.
    assert len(loads) >= 3
    assert max(loads) <= 40.0 + 1e-9
    xt.stop()


def test_cross_traffic_steals_fair_share(rng):
    net, link = make_net(capacity=100.0)
    # Persistent background load of 50 Mbps (always on).
    sources = [OnOffSource(rate_mbps=50.0, mean_on_s=1e9, mean_off_s=1e-3)]
    xt = CrossTrafficSource(net, [link], sources, np.random.default_rng(1))
    # Force ON regardless of the initial draw.
    xt._on[0] = True
    xt._flows[0].demand_mbps = 50.0

    test_flow = net.start_flow(Flow([link]))
    net.allocate(0.0)
    assert test_flow.allocated_mbps == pytest.approx(50.0)
    xt.stop()
    net.allocate(0.0)
    assert test_flow.allocated_mbps == pytest.approx(100.0)


def test_stop_is_idempotent(rng):
    net, link = make_net()
    xt = attach_cross_traffic(net, link, 10.0, 2, rng=rng)
    xt.stop()
    xt.stop()
    assert len(net.flows) == 0


def test_attach_validation(rng):
    net, link = make_net()
    with pytest.raises(ValueError):
        attach_cross_traffic(net, link, 10.0, 0, rng=rng)
    with pytest.raises(ValueError):
        attach_cross_traffic(net, link, 0.0, 2, rng=rng)
    with pytest.raises(ValueError):
        CrossTrafficSource(net, [link], [], rng)


def test_deterministic_given_rng():
    net1, link1 = make_net()
    xt1 = attach_cross_traffic(net1, link1, 30.0, 3,
                               rng=np.random.default_rng(5))
    net2, link2 = make_net()
    xt2 = attach_cross_traffic(net2, link2, 30.0, 3,
                               rng=np.random.default_rng(5))
    for step in range(100):
        xt1.advance(step * 0.1)
        xt2.advance(step * 0.1)
        assert xt1.offered_load_mbps() == xt2.offered_load_mbps()


def test_bts_estimate_under_contention(rng):
    """A flooding BTS measures its fair share, not raw capacity, when
    the user's background traffic competes.  One background flow
    against 20 parallel test connections is rightly starved by max-min
    sharing, so a meaningful contention scenario needs several
    competing flows."""
    from repro.baselines.btsapp import BtsApp
    from repro.testbed.env import make_environment

    env = make_environment(
        100.0, rng=np.random.default_rng(9), tech="WiFi5",
        server_capacity_mbps=1000.0,
    )
    xt = attach_cross_traffic(
        env.network, env.access, total_rate_mbps=80.0, n_sources=8,
        rng=np.random.default_rng(10),
    )
    # Pin every background flow ON for the whole test.
    for i in range(8):
        xt._on[i] = True
        xt._flows[i].demand_mbps = 10.0
        xt._next_toggle_s[i] = 1e9

    result = BtsApp().run(env)
    # 20 test connections + 8 bottlenecked competitors: the test's
    # fair share is ~100 x 20/28 ≈ 71 Mbps, well below raw capacity.
    assert 55.0 < result.bandwidth_mbps < 85.0
    xt.stop()


# -- bounded catch-up and explicit seeding (PR 10 bugfixes) -------------


def test_multi_hour_jump_returns_instantly(rng):
    """A multi-hour time jump must not replay millions of toggles."""
    import time

    net, link = make_net()
    xt = attach_cross_traffic(net, link, total_rate_mbps=30.0,
                              n_sources=3, rng=rng)
    start = time.perf_counter()
    xt.advance(6 * 3600.0)       # six hours in one step
    xt.advance(24 * 3600.0)      # then a full day
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    # The source remains usable afterwards: toggles still happen.
    loads = set()
    for step in range(200):
        xt.advance(24 * 3600.0 + step * 0.05)
        loads.add(round(xt.offered_load_mbps(), 1))
    assert len(loads) >= 2
    xt.stop()


def test_catchup_preserves_stationary_on_fraction():
    """The closed-form resample lands on the same stationary ON
    fraction the replayed process would mix to."""
    on_after_jump = 0
    trials = 2000
    for seed in range(trials):
        net, link = make_net()
        sources = [OnOffSource(rate_mbps=10.0, mean_on_s=2.0, mean_off_s=4.0)]
        xt = CrossTrafficSource(net, [link], sources,
                                np.random.default_rng(seed))
        xt.advance(1e6)  # far past the catch-up horizon
        on_after_jump += xt.active_count
        xt.stop()
    # Stationary P(on) = 2 / (2 + 4) = 1/3.
    assert on_after_jump / trials == pytest.approx(1 / 3, abs=0.03)


def test_small_steps_unchanged_by_horizon():
    """Ordinary stepping never crosses the horizon, so the bounded
    catch-up leaves normal scenarios byte-identical."""
    schedules = []
    for _ in range(2):
        net, link = make_net()
        xt = attach_cross_traffic(net, link, total_rate_mbps=20.0,
                                  n_sources=2, rng=np.random.default_rng(5))
        loads = []
        for step in range(500):
            xt.advance(step * 0.1)
            loads.append(xt.offered_load_mbps())
        schedules.append(loads)
        xt.stop()
    assert schedules[0] == schedules[1]


def test_seed_derives_per_link_stream():
    from repro.netsim.crosstraffic import cross_traffic_rng

    net = Network()
    a = net.add_link(Link(100.0, name="a"))
    b = net.add_link(Link(100.0, name="b"))
    xa = attach_cross_traffic(net, a, total_rate_mbps=10.0,
                              n_sources=4, seed=7)
    xb = attach_cross_traffic(net, b, total_rate_mbps=10.0,
                              n_sources=4, seed=7)
    # Distinct links under one seed get distinct burst schedules...
    assert [s.mean_on_s for s in xa._sources] != \
        [s.mean_on_s for s in xb._sources]
    # ...and the derivation is reproducible: replaying the draw order
    # from cross_traffic_rng(seed, link.name) rebuilds the schedule.
    expected = cross_traffic_rng(7, "a")
    for source in xa._sources:
        assert source.mean_on_s == float(expected.uniform(1.0, 3.0))
        assert source.mean_off_s == float(expected.uniform(2.0, 6.0))
    xa.stop()
    xb.stop()


def test_rng_and_seed_conflict_rejected(rng):
    net, link = make_net()
    with pytest.raises(ValueError, match="not both"):
        attach_cross_traffic(net, link, total_rate_mbps=10.0,
                             n_sources=2, rng=rng, seed=3)


def test_implicit_default_rng_rejected():
    # A shared default stream would give every call site the same burst
    # schedule, so omitting both rng and seed is an error.
    net, link = make_net()
    with pytest.raises(ValueError, match="rng or seed"):
        attach_cross_traffic(net, link, total_rate_mbps=10.0, n_sources=2)
    assert len(net.flows) == 0
