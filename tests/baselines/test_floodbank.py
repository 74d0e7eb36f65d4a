"""The flood bank's identity matrix.

``BtsApp().run_bank(envs)[k]`` must equal ``BtsApp().run(env_k)`` as a
whole ``BTSResult`` (samples, bytes, servers, ping time, estimate) over
environments built by ``row_environment``, whatever the bank's width,
its row order, the seed or the congestion control.
"""

import math

import numpy as np
import pytest

from repro.baselines.btsapp import BtsApp
from repro.baselines.driver import MAX_SERVERS
from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.harness.collection import row_environment
from repro.netsim.faults import outage_plan
from repro.netsim.trace import ShapedTrace
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
