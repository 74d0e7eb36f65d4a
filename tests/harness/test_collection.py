"""Measured campaigns: the §2 data-collection path."""

import numpy as np
import pytest

from repro.dataset.generator import CampaignConfig as GenerationConfig
from repro.dataset.generator import generate_campaign
from repro.dataset.records import SCHEMA, Dataset
import repro.harness.collection as collection
from repro.harness.collection import (
    CAPACITY_BLOCK,
    _block_rngs,
    measurement_error_stats,
    row_capacities,
    row_environment,
)
from repro.harness.config import CampaignConfig
from repro.harness.pairs import (
    FLUCTUATION_RANGE,
    RTT_RANGE_S,
    SHAPED_DUTY_RANGE,
    SHAPED_PERIOD_RANGE_S,
    SHAPED_THROTTLE_RANGE,
)
from repro.harness.parallel import run_campaign


@pytest.fixture(scope="module")
def contexts():
    return generate_campaign(
        GenerationConfig(n_tests=3_000, seed=61,
                         tech_shares={"4G": 0.3, "5G": 0.3, "WiFi5": 0.4})
    )


@pytest.fixture(scope="module")
def measured(contexts):
    return run_campaign(
        contexts, CampaignConfig(seed=3, max_tests=40)
    ).dataset


def test_measured_rows_preserve_context(measured, contexts):
    assert len(measured) == 40
    # Context columns survive unchanged for matching test ids.
    truth_band = dict(zip(contexts.column("test_id").tolist(),
                          contexts.column("band").tolist()))
    for test_id, band in zip(measured.column("test_id").tolist(),
                             measured.column("band").tolist()):
        assert truth_band[test_id] == band


def test_measured_values_track_ground_truth(measured, contexts):
    stats = measurement_error_stats(contexts, measured)
    assert stats["n"] == 40
    # A 10 s flooding test is an accurate estimator of the capacity.
    assert stats["median_rel_error"] < 0.06
    assert stats["mean_rel_error"] < 0.10


def test_measured_with_swiftest(contexts, registry):
    report = run_campaign(contexts, CampaignConfig(
        seed=5, max_tests=15, test="swiftest",
        test_kwargs={"registry": registry},
    ))
    stats = measurement_error_stats(contexts, report.dataset)
    assert stats["median_rel_error"] < 0.08


def test_empty_campaign_rejected(contexts):
    empty = contexts.where(tech="6G")
    with pytest.raises(ValueError):
        run_campaign(empty, CampaignConfig())


def test_error_stats_require_matching_ids(contexts, measured):
    with pytest.raises(ValueError):
        measurement_error_stats(contexts.where(tech="6G"), measured)


# -- failure paths and determinism --------------------------------------


def test_subsampling_is_deterministic_under_fixed_seed(contexts):
    from repro.harness.collection import campaign_subset

    a = campaign_subset(contexts, seed=9, max_tests=25)
    b = campaign_subset(contexts, seed=9, max_tests=25)
    assert a.column("test_id").tolist() == b.column("test_id").tolist()
    c = campaign_subset(contexts, seed=10, max_tests=25)
    assert a.column("test_id").tolist() != c.column("test_id").tolist()
    # No cap means the subset is the campaign itself, in order.
    full = campaign_subset(contexts, seed=9)
    assert full.column("test_id").tolist() == \
        contexts.column("test_id").tolist()


def test_row_environment_validates_index_and_attempt(contexts):
    from repro.harness.collection import campaign_subset, row_environment

    subset = campaign_subset(contexts, seed=3, max_tests=5)
    with pytest.raises(IndexError):
        row_environment(subset, 5, seed=3)
    with pytest.raises(IndexError):
        row_environment(subset, -1, seed=3)
    with pytest.raises(ValueError):
        row_environment(subset, 0, seed=3, attempt=-1)


def test_retry_attempts_see_independent_weather(contexts):
    """Attempt 0 replays the historical RNG stream; retries draw fresh
    (but still seeded) streams, so a transient simulated failure is not
    deterministically replayed on retry."""
    from repro.harness.collection import campaign_subset, row_environment

    subset = campaign_subset(contexts, seed=3, max_tests=5)
    env0a = row_environment(subset, 2, seed=3, attempt=0)
    env0b = row_environment(subset, 2, seed=3, attempt=0)
    env1 = row_environment(subset, 2, seed=3, attempt=1)
    # Same attempt -> identical environment (same capacity trajectory).
    assert env0a.true_capacity(1.0) == env0b.true_capacity(1.0)
    # Different attempt -> same base capacity, different weather.
    assert env1.access.trace.base_mbps == env0a.access.trace.base_mbps
    assert env1.true_capacity(1.0) != env0a.true_capacity(1.0)


def test_quarantined_rows_are_accounted_not_dropped(contexts,
                                                    registered_test):
    """Every subset row ends up either measured or in the quarantine
    report — none vanish."""
    from repro.baselines.common import BandwidthTestService
    from repro.harness.collection import campaign_subset
    from repro.harness.runtime import RetryPolicy

    class Fails5G(BandwidthTestService):
        name = "fails-5g"

        def run(self, env):
            if env.tech == "5G":
                raise RuntimeError("no 5G backend today")
            from repro.baselines.btsapp import BtsApp
            return BtsApp().run(env)

    subset = campaign_subset(contexts, seed=3, max_tests=30)
    n_5g = sum(1 for t in subset.column("tech").tolist() if t == "5G")
    report = run_campaign(contexts, CampaignConfig(
        seed=3, max_tests=30, test=registered_test(Fails5G.name, Fails5G),
        retry=RetryPolicy(max_attempts=2),
    ))
    assert report.n_measured + report.n_quarantined == 30
    assert report.n_quarantined == n_5g
    measured_ids = set(report.dataset.column("test_id").tolist())
    quarantined_ids = {row.test_id for row in report.quarantined}
    assert measured_ids | quarantined_ids == \
        set(subset.column("test_id").tolist())
    assert measured_ids.isdisjoint(quarantined_ids)


# -- the access-capacity kernel -----------------------------------------

#: Window lengths the kernel is checked at: the loopback's 5 s probing
#: budget, 10 s, and 45 s, past the 40 s trace (the wrap, and every
#: grid point).
WINDOWS = (5.0, 10.0, 45.0)


@pytest.fixture(scope="module", params=[20220801, 20221101, 7])
def reference_capacities(request, contexts):
    """``row_environment(...).true_mean_capacity(0, w)`` of every row,
    per window, and which rows got a shaped access link."""
    from repro.netsim.trace import ShapedTrace

    seed = request.param
    envs = [row_environment(contexts, i, seed) for i in range(len(contexts))]
    means = {
        w: np.array([env.true_mean_capacity(0.0, w) for env in envs])
        for w in WINDOWS
    }
    shaped = [isinstance(env.access.trace, ShapedTrace) for env in envs]
    return seed, means, shaped


def test_row_capacities_match_row_environments(contexts,
                                               reference_capacities):
    seed, means, shaped = reference_capacities
    assert len(contexts) >= 2000
    assert any(shaped)
    rows = np.arange(len(contexts))
    for w in WINDOWS:
        got = row_capacities(contexts, rows, seed, w)
        assert got.tobytes() == means[w].tobytes(), w


@pytest.mark.parametrize("block", [1, 7, 256, 257])
def test_row_capacities_are_invisible_to_blocks_and_order(
    contexts, reference_capacities, block
):
    """Any split of the rows into calls, and any row order, gives each
    row the same float."""
    seed, means, _ = reference_capacities
    rows = np.random.default_rng(block).permutation(len(contexts))
    for w in (WINDOWS[0], WINDOWS[-1]):
        got = np.concatenate([
            row_capacities(contexts, rows[i:i + block], seed, w)
            for i in range(0, len(rows), block)
        ])
        assert got.tobytes() == means[w][rows].tobytes(), (block, w)


def test_row_capacities_raise_what_row_environment_raises(contexts):
    columns = {name: np.array(contexts.column(name)) for name in SCHEMA}
    columns["bandwidth_mbps"][[3, 4]] = [0.0, -2.5]
    broken = Dataset(columns)
    for index in (3, 4):
        with pytest.raises(ValueError) as per_row:
            row_environment(broken, index, seed=5)
        with pytest.raises(ValueError) as kernel:
            row_capacities(broken, [0, index], 5, 5.0)
        assert str(kernel.value) == str(per_row.value)
    for index in (-1, len(contexts)):
        with pytest.raises(IndexError):
            row_capacities(contexts, [0, index], 5, 5.0)
    with pytest.raises(ValueError, match="end must follow start"):
        row_capacities(contexts, [0], 5, 0.0)


#: Seeds that fill one, two and four 32-bit words of RNG entropy.
IDENTITY_SEEDS = (0, 2**64 - 1, 2**128 - 1)


@pytest.mark.parametrize("seed", IDENTITY_SEEDS)
def test_numpy_identities_behind_two_draw_calls_a_row(seed):
    """The numpy identities ``row_capacities``' fused draws rest on,
    bit for bit on one stream: ``uniform(a, b)`` is
    ``a + (b - a) * random()`` for every range of the access draws,
    ``normal(0.0, s)`` is ``0.0 + s * standard_normal()``, and
    ``normal(0.0, 1.0, n)`` is ``0.0 + 1.0 * standard_normal(n)``.  A
    numpy release that breaks one fails here by name, not as a digest
    mismatch."""
    drawn, fused = np.random.default_rng(seed), np.random.default_rng(seed)
    for low, high in (
        FLUCTUATION_RANGE, SHAPED_THROTTLE_RANGE, SHAPED_PERIOD_RANGE_S,
        SHAPED_DUTY_RANGE, RTT_RANGE_S,
    ):
        got = [drawn.uniform(low, high) for _ in range(2_000)]
        want = [low + (high - low) * fused.random() for _ in range(2_000)]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (low, high)
    sigmas = [drawn.uniform(*FLUCTUATION_RANGE) for _ in range(2_000)]
    fused.random(len(sigmas))
    got = [drawn.normal(0.0, s) for s in sigmas]
    want = [0.0 + s * fused.standard_normal() for s in sigmas]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    for n in (1, 99, 2_000):
        got = drawn.normal(0.0, 1.0, n)
        want = 0.0 + 1.0 * fused.standard_normal(n)
        assert got.tobytes() == want.tobytes(), n


def test_row_capacities_check_every_index_before_seeding(
    contexts, monkeypatch
):
    seeded = []
    monkeypatch.setattr(
        collection, "_block_rngs", lambda seed, block: seeded.append(block)
    )
    rows = list(range(CAPACITY_BLOCK)) + [len(contexts)]
    with pytest.raises(IndexError, match="outside subset"):
        row_capacities(contexts, rows, 5, 5.0)
    assert seeded == []


# -- the block seeding kernel -------------------------------------------

#: Seeds the kernel is checked at: one to five entropy words, with
#: carries across 2**32, 2**64 and 2**128 (a fifth word) and a seed past
#: 2**128 whose rows all take the extra-word rounds.
SEEDING_SEEDS = (
    0, 1, 2**32 - 32, 2**32 - 1, 2**63, 2**64 - 1, 2**70,
    2**128 - 31, 2**128 - 1, 2**200,
)

#: Row indices whose offsets ``31 (index + 1)`` reach past 2**32 and up
#: to just below 2**64, beside 253 small ones: 257 rows in all.
SEEDING_ROWS = np.concatenate([
    np.arange(253), [2**32 // 31 - 1, 2**32 // 31, 2**58, 2**59 - 2],
])


@pytest.mark.parametrize("seed", SEEDING_SEEDS)
def test_block_seeding_equals_numpy_seeding(seed):
    """Every RNG the kernel seeds has the state of
    ``default_rng(seed + 31 (index + 1))``, the per-row path's RNG,
    for blocks of any size in any order."""
    rows = np.random.default_rng(seed % 2**32).permutation(SEEDING_ROWS)
    expected = {
        int(index): np.random.default_rng(
            seed + 31 * (int(index) + 1)
        ).bit_generator.state
        for index in rows
    }
    for block in (1, 7, 256, 257):
        for start in range(0, len(rows), block):
            indices = rows[start:start + block]
            rngs = _block_rngs(seed, indices)
            assert len(rngs) == len(indices)
            for index, rng in zip(indices, rngs):
                assert rng.bit_generator.state == expected[int(index)], (
                    block, int(index)
                )


def test_block_seeding_refuses_negative_entropy_like_numpy():
    """A negative seed is entropy like any other while every row's
    ``seed + 31 (index + 1)`` stays non-negative, and fails as numpy
    fails once a row's does not."""
    assert _block_rngs(-31, [1, 0])[1].bit_generator.state == (
        np.random.default_rng(0).bit_generator.state
    )
    for seed, rows in ((-32, [0]), (-100, [5, 0])):
        with pytest.raises(ValueError) as per_row:
            np.random.default_rng(seed + 31)
        with pytest.raises(ValueError) as kernel:
            _block_rngs(seed, rows)
        assert str(kernel.value) == str(per_row.value)


def test_banked_campaign_matches_per_row_measurement(contexts):
    """600 banked rows (more than one kernel block), in-process and
    over three shards, against ``measure_row`` row by row."""
    config = dict(seed=17, max_tests=600, test="swiftest-loopback")
    per_row = run_campaign(contexts, CampaignConfig(mode="oracle", **config))
    for n_shards in (1, 3):
        banked = run_campaign(contexts, CampaignConfig(
            mode="vectorized", n_shards=n_shards, **config
        ))
        for name in SCHEMA:
            got, expected = (
                banked.dataset.column(name), per_row.dataset.column(name)
            )
            if got.dtype == np.float64:
                assert got.tobytes() == expected.tobytes(), (n_shards, name)
            else:
                assert np.array_equal(got, expected), (n_shards, name)
