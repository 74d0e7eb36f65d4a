"""The flood bank's identity matrix.

``BtsApp().run_bank(envs)[k]`` must equal ``BtsApp().run(env_k)`` as a
whole ``BTSResult`` (samples, bytes, servers, ping time, estimate) over
environments built by ``row_environment``, whatever the bank's width,
its row order, the seed or the congestion control; and so must
``SpeedtestLike``'s.  Hand-built environments cover what campaign rows
never hold: OU access traces of another duration, constant access links
and server uplinks narrower than the access link.  The allocation alone
must equal ``Network.allocate`` on random stars.
"""

import math

import numpy as np
import pytest

from repro.baselines.btsapp import BtsApp
from repro.baselines.driver import _STEP_S, MAX_SERVERS
from repro.baselines.floodbank import _access_capacities, _clock, _Filling
from repro.baselines.speedtest import SpeedtestLike
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.harness.collection import row_environment
from repro.netsim.faults import outage_plan
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.path import NetworkPath
from repro.netsim.trace import ConstantTrace, FluctuatingTrace, ShapedTrace
from repro.testbed.env import make_environment

SEEDS = (20220801, 20221101, 7)
CC_NAMES = ("cubic", "reno", "bbr")


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(GenerationConfig(year=2021, n_tests=3_000, seed=5))


def matrix_rows(contexts, seed):
    """Rows that cover what a bank must express: the slowest context
    (stays on one server), the fastest (recruits every server), the
    first row with a shaped access link, and a few ordinary rows."""
    bandwidth = contexts.bandwidth
    shaped = next(
        i for i in range(len(contexts))
        if isinstance(
            row_environment(contexts, i, seed).access.trace, ShapedTrace
        )
    )
    return [int(np.argmin(bandwidth)), int(np.argmax(bandwidth)), shaped,
            0, 1, 2, 3]


def environments(contexts, rows, seed):
    return [row_environment(contexts, i, seed) for i in rows]


@pytest.fixture(scope="module")
def references(contexts):
    """Per-row results for every (seed, cc_name)."""
    out = {}
    for seed in SEEDS:
        rows = matrix_rows(contexts, seed)
        for cc_name in CC_NAMES:
            service = BtsApp(cc_name=cc_name)
            out[seed, cc_name] = rows, [
                service.run(env)
                for env in environments(contexts, rows, seed)
            ]
    return out


@pytest.mark.parametrize("cc_name", CC_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bank_equals_per_row_runs(contexts, references, seed, cc_name):
    rows, expected = references[seed, cc_name]
    service = BtsApp(cc_name=cc_name)

    shuffled = list(np.random.default_rng(seed).permutation(len(rows)))
    banked = service.run_bank(
        environments(contexts, [rows[k] for k in shuffled], seed)
    )
    assert [banked[shuffled.index(k)] for k in range(len(rows))] == expected

    for start in range(0, len(rows), 5):
        block = rows[start:start + 5]
        assert (
            service.run_bank(environments(contexts, block, seed))
            == expected[start:start + 5]
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_bank_width_is_invisible(contexts, references, seed):
    """Banks of 1 and of 64 rows (the matrix rows over again, each
    with a fresh environment) equal the per-row runs."""
    rows, expected = references[seed, "cubic"]
    service = BtsApp()
    for k in (0, 2):
        assert service.run_bank(
            environments(contexts, [rows[k]], seed)
        ) == [expected[k]]
    wide = [k % len(rows) for k in range(64)]
    banked = service.run_bank(
        environments(contexts, [rows[k] for k in wide], seed)
    )
    assert banked == [expected[k] for k in wide]


def test_matrix_covers_shaped_and_escalation(contexts, references):
    for seed in SEEDS:
        rows, expected = references[seed, "cubic"]
        envs = environments(contexts, rows, seed)
        assert any(isinstance(e.access.trace, ShapedTrace) for e in envs)
        servers = {result.servers_used for result in expected}
        assert 1 in servers and MAX_SERVERS in servers, (seed, servers)


def test_bank_rejects_fault_plans():
    env = make_environment(100.0, rng=np.random.default_rng(1), n_servers=5)
    env.faults = outage_plan({"server-0": [(1.0, 2.0)]})
    with pytest.raises(ValueError, match="fault plan"):
        BtsApp().run_bank([env])


def test_bank_rejects_environments_sharing_an_rng(contexts):
    """Sequential runs take each row's draws in a block; a bank would
    interleave draws from a shared RNG, so it refuses."""
    env = row_environment(contexts, 0, 7)
    with pytest.raises(ValueError, match="one RNG per environment"):
        BtsApp().run_bank([env, env])
    rng = np.random.default_rng(1)
    pair = [make_environment(100.0, rng=rng, n_servers=5) for _ in range(2)]
    with pytest.raises(ValueError, match="one RNG per environment"):
        BtsApp().run_bank(pair)


def test_flood_sums_do_not_depend_on_builtin_sum(contexts, monkeypatch):
    """Python 3.12 made builtin ``sum`` of floats compensated; the
    flood's sums add left to right on every interpreter, so a
    compensated ``sum`` in the flood modules changes nothing."""
    import repro.baselines.driver as driver
    import repro.netsim.network as network

    rows = range(6)
    expected = [BtsApp().run(env)
                for env in environments(contexts, rows, 7)]
    monkeypatch.setattr(driver, "sum", math.fsum, raising=False)
    monkeypatch.setattr(network, "sum", math.fsum, raising=False)
    assert [BtsApp().run(env)
            for env in environments(contexts, rows, 7)] == expected


@pytest.fixture(scope="module")
def speedtest_references(contexts):
    """Per-row Speedtest results for every seed."""
    out = {}
    for seed in SEEDS:
        rows = matrix_rows(contexts, seed)
        out[seed] = rows, [
            SpeedtestLike().run(env)
            for env in environments(contexts, rows, seed)
        ]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_speedtest_bank_equals_per_row_runs(
    contexts, speedtest_references, seed
):
    """Speedtest's fixed 15 s Cubic flood through the bank: shuffled
    rows, and banks of 1, 5 and 64 rows."""
    rows, expected = speedtest_references[seed]
    service = SpeedtestLike()

    shuffled = list(np.random.default_rng(seed).permutation(len(rows)))
    banked = service.run_bank(
        environments(contexts, [rows[k] for k in shuffled], seed)
    )
    assert [banked[shuffled.index(k)] for k in range(len(rows))] == expected

    for start in range(0, len(rows), 5):
        block = rows[start:start + 5]
        assert (
            service.run_bank(environments(contexts, block, seed))
            == expected[start:start + 5]
        )
    for k in (0, 2):
        assert service.run_bank(
            environments(contexts, [rows[k]], seed)
        ) == [expected[k]]
    wide = [k % len(rows) for k in range(64)]
    assert service.run_bank(
        environments(contexts, [rows[k] for k in wide], seed)
    ) == [expected[k] for k in wide]


def handmade_environments(seed):
    """Rows that ``row_environment`` never builds, each on its own RNG:
    OU access traces on 30 s and 12 s grids, a constant access link,
    and a 300 Mbps access link over pools of 20 and 30 Mbps servers,
    whose uplinks fill before the access link does."""

    def rng(k):
        return np.random.default_rng([seed, k])

    return [
        make_environment(80.0, rng(0), n_servers=5, fluctuation_sigma=0.2,
                         duration_hint_s=30.0),
        make_environment(150.0, rng(1), n_servers=5, fluctuation_sigma=0.3,
                         duration_hint_s=12.0),
        make_environment(60.0, rng(2), n_servers=5),
        make_environment(300.0, rng(3), n_servers=5,
                         server_capacity_mbps=20.0),
        make_environment(40.0, rng(4), n_servers=5, fluctuation_sigma=0.25,
                         duration_hint_s=12.0),
        make_environment(300.0, rng(5), n_servers=5,
                         server_capacity_mbps=30.0),
    ]


def test_bank_equals_per_row_runs_on_handmade_environments():
    envs = handmade_environments(11)
    traces = [env.access.trace for env in envs]
    assert {t.duration_s for t in traces
            if isinstance(t, FluctuatingTrace)} == {30.0, 12.0}
    assert any(type(t) is ConstantTrace for t in traces)

    expected = [BtsApp().run(env) for env in envs]
    assert BtsApp().run_bank(handmade_environments(11)) == expected
    # Uplink-bound floods: one 20 Mbps server never reaches the first
    # escalation threshold; 30 Mbps servers recruit the whole pool.
    narrow, wider = expected[3], expected[5]
    assert narrow.servers_used == 1
    assert max(sample for _, sample in narrow.samples) == pytest.approx(20.0)
    assert wider.servers_used == MAX_SERVERS


@pytest.mark.parametrize("duration_s", [10.0, 15.0])
def test_access_capacity_table_is_capacity_at_every_tick(
    contexts, duration_s
):
    """The bank's clock is the session's, and its capacity table holds
    ``trace.capacity_at(now)`` bit for bit at every tick, for OU grids
    of several durations, shaped and constant links."""
    times = []
    now = 0.0
    while now < duration_s:
        times.append(now)
        now += _STEP_S
    clock = _clock(duration_s)
    assert clock == times + [now]

    envs = (environments(contexts, matrix_rows(contexts, 7), 7)
            + handmade_environments(3))
    assert any(isinstance(e.access.trace, ShapedTrace) for e in envs)
    table = _access_capacities(envs, times)
    assert table.shape == (len(times), len(envs))
    assert table.tolist() == [
        [env.access.trace.capacity_at(now) for env in envs]
        for now in times
    ]


def network_rates(demand, access_mbps, uplinks_mbps):
    """``Network.allocate`` on one flood's star: lane ``4k + i`` is a
    flow over the access link and server ``k``'s uplink."""
    network = Network()
    access = network.add_link(Link(access_mbps, name="access"))
    flows = []
    for k, uplink_mbps in enumerate(uplinks_mbps):
        uplink = network.add_link(Link(uplink_mbps, name=f"server-{k}"))
        path = NetworkPath(network, [access, uplink], rtt_s=0.05)
        flows += [path.open_flow(demand_mbps=float(d))
                  for d in demand[4 * k:4 * k + 4]]
    network.allocate(0.0)
    return [f.allocated_mbps for f in flows] + [0.0] * (20 - len(flows))


def test_filling_equals_network_allocate_on_random_stars():
    """Banks of random stars, capacities and demands spread over ten
    orders of magnitude: past about 1e7 Mbps a float's spacing exceeds
    the allocation's epsilon, so some passes freeze nothing in one row
    (which stops filling there) while other rows keep filling."""
    rng = np.random.default_rng(2022)
    filling = _Filling(4)
    for _ in range(500):
        demand = np.zeros((4, 20))
        capacity = np.full((4, 6), np.inf)
        for row in range(4):
            servers = int(rng.integers(1, 6))
            scale = 10.0 ** rng.integers(0, 10)
            demand[row, :4 * servers] = rng.choice(
                [scale * rng.random(), scale, scale / 3], size=4 * servers
            )
            capacity[row, :1 + servers] = (
                10.0 ** rng.integers(0, 10, size=1 + servers)
                * rng.random(1 + servers) + 1.0
            )
        expected = [
            network_rates(demand[row], capacity[row, 0],
                          capacity[row, 1:][np.isfinite(capacity[row, 1:])])
            for row in range(4)
        ]
        assert filling.allocate(demand, capacity).tolist() == expected
