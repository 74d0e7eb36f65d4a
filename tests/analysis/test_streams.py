"""Streaming analysis kernels vs their independent references.

Every assertion here is *byte* identity, not tolerance: the folds
accumulate with unbuffered ``np.add.at`` in row order, the same
sequential sums as the ``np.bincount`` group-by of
:mod:`tests.analysis.reference`, so any chunk partition of the input
(single rows, odd slices, the whole in-memory dataset as one chunk, or
the positioned reads of a mapped ``.npd`` payload) must produce
literally the same floats.
"""

import warnings

import numpy as np
import pytest

from repro.analysis.diurnal import (
    HourlyProfile,
    hourly_profile,
    hourly_profile_stream,
)
from repro.analysis.longitudinal import (
    matched_group_declines,
    matched_group_declines_stream,
    stream_group_means,
)
from repro.analysis.streams import (
    _POISSON_CDF,
    _POISSON_HEAD,
    BOOTSTRAP_BLOCK_ROWS,
    GroupReduceStream,
    MeanStream,
    PoissonBootstrapStream,
    _poisson_multiplicities,
    poisson_bootstrap_ci,
)
from repro.dataset.generator import CampaignConfig, generate_campaign
from repro.dataset.records import Dataset
from repro.dataset.substreams import SLOT_BOOTSTRAP, uniform_block

from .reference import group_means_by_pair, group_reduce, poisson_bootstrap

#: Group-by keys checked: a handful of technologies, and 159 city ids
#: (past GroupReduceStream's 64 initial slots, so its table regrows).
GROUP_KEYS = ("tech", "city_id")


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(CampaignConfig(year=2020, n_tests=4000, seed=3))


@pytest.fixture(scope="module")
def campaign_after():
    return generate_campaign(CampaignConfig(year=2021, n_tests=4000, seed=4))


@pytest.fixture(scope="module")
def mapped_campaign(campaign, tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "campaign.npd"
    campaign.to_npd(path, chunk_size=999)
    return Dataset.open_mapped(path)


def _chunks(dataset, chunk_size, columns=None):
    return dataset.iter_chunks(chunk_size=chunk_size, columns=columns)


def _assert_matches_group_reduce(stream, dataset, key):
    keys, means, counts = stream.result()
    ref_keys, ref_means, ref_counts = group_reduce(
        dataset.column(key), dataset.bandwidth
    )
    assert keys == ref_keys.tolist()
    assert means.tobytes() == ref_means.tobytes()
    assert counts.tolist() == ref_counts.tolist()


def _reference_hourly(dataset, tech):
    mask = dataset.column("tech") == tech
    hours, means, counts = group_reduce(
        dataset.column("hour")[mask], dataset.bandwidth[mask]
    )
    return HourlyProfile(
        counts=dict(zip(hours.tolist(), counts.tolist())),
        mean_bandwidth=dict(zip(hours.tolist(), means.tolist())),
    )


def _reference_group_means(dataset, tech):
    mask = dataset.column("tech") == tech
    return int(mask.sum()), group_means_by_pair(
        dataset.column("isp")[mask],
        dataset.column("city_tier")[mask],
        dataset.bandwidth[mask],
    )


# -- GroupReduceStream -------------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 7, 131, 4000, 9999])
def test_group_stream_identical_to_group_reduce(
    campaign, mapped_campaign, chunk_size
):
    for dataset in (campaign, mapped_campaign):
        for key in GROUP_KEYS:
            stream = GroupReduceStream()
            for chunk in _chunks(dataset, chunk_size,
                                 [key, "bandwidth_mbps"]):
                stream.update(chunk[key], chunk["bandwidth_mbps"])
            _assert_matches_group_reduce(stream, campaign, key)


def test_group_mean_bandwidth_identical_to_group_reduce(
    campaign, mapped_campaign
):
    for key in GROUP_KEYS:
        ref_keys, ref_means, _ = group_reduce(
            campaign.column(key), campaign.bandwidth
        )
        expected = dict(zip(ref_keys.tolist(), ref_means.tolist()))
        assert campaign.group_mean_bandwidth(key) == expected
        assert mapped_campaign.group_mean_bandwidth(key) == expected


def test_group_stream_empty():
    keys, means, counts = GroupReduceStream().result()
    assert keys == [] and len(means) == 0 and len(counts) == 0


def test_group_stream_pairs_match_flat_codes(campaign):
    stream = GroupReduceStream()
    for chunk in _chunks(campaign, 257, ["isp", "city_tier",
                                         "bandwidth_mbps"]):
        stream.update_pairs(
            chunk["isp"], chunk["city_tier"], chunk["bandwidth_mbps"]
        )
    assert stream.result_dict() == group_means_by_pair(
        campaign.column("isp"),
        campaign.column("city_tier"),
        campaign.bandwidth,
    )


# -- MeanStream --------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 13, 4000])
def test_mean_stream_sequential_sum_identity(campaign, chunk_size):
    stream = MeanStream()
    for chunk in _chunks(campaign, chunk_size, ["bandwidth_mbps"]):
        stream.update(chunk["bandwidth_mbps"])
    acc = np.zeros(1)
    np.add.at(acc, np.zeros(len(campaign), np.intp), campaign.bandwidth)
    assert stream.total == acc[0]
    assert stream.count == len(campaign)
    assert stream.result() == acc[0] / len(campaign)


def test_mean_stream_empty_is_nan():
    assert np.isnan(MeanStream().result())


# -- hourly / longitudinal streams ------------------------------------


@pytest.mark.parametrize("chunk_size", [17, 4000])
def test_hourly_stream_identical(campaign, mapped_campaign, chunk_size):
    columns = ["tech", "hour", "bandwidth_mbps"]
    expected = _reference_hourly(campaign, "4G")
    for dataset in (campaign, mapped_campaign):
        assert hourly_profile_stream(
            _chunks(dataset, chunk_size, columns), "4G"
        ) == expected
        assert hourly_profile(dataset, "4G") == expected


def test_hourly_stream_missing_tech_raises(campaign):
    with pytest.raises(ValueError, match="no 2G tests"):
        hourly_profile_stream(
            _chunks(campaign, 100, ["tech", "hour", "bandwidth_mbps"]), "2G"
        )


@pytest.mark.parametrize("chunk_before,chunk_after", [(19, 501), (4000, 37)])
def test_longitudinal_stream_identical(
    campaign, mapped_campaign, campaign_after, chunk_before, chunk_after
):
    columns = ["tech", "isp", "city_tier", "bandwidth_mbps"]
    expected = matched_group_declines(
        campaign, campaign_after, "4G", min_tests=10
    )
    assert len(expected) > 0
    for before in (campaign, mapped_campaign):
        assert stream_group_means(
            _chunks(before, chunk_before, columns), "4G"
        ) == _reference_group_means(campaign, "4G")
        assert matched_group_declines_stream(
            _chunks(before, chunk_before, columns),
            _chunks(campaign_after, chunk_after, columns),
            "4G", min_tests=10,
        ) == expected
    assert stream_group_means(
        _chunks(campaign_after, chunk_after, columns), "4G"
    ) == _reference_group_means(campaign_after, "4G")


def test_longitudinal_stream_empty_campaign_raises(campaign):
    with pytest.raises(ValueError, match="both campaigns need"):
        matched_group_declines_stream(
            campaign.iter_chunks(chunk_size=100), iter([]), "4G"
        )


# -- Poisson bootstrap -------------------------------------------------


@pytest.mark.parametrize("statistic", ["mean", "sum"])
def test_bootstrap_stream_equals_oracle(campaign, mapped_campaign, statistic):
    """All 4000 rows: three full 1024-row blocks and a partial one."""
    values = campaign.bandwidth
    expected = poisson_bootstrap(
        values, seed=5, n_resamples=150, statistic=statistic
    )
    partitions = (
        values,
        [values[:1], values[1:1500], values[1500:]],
        (chunk["bandwidth_mbps"] for chunk in mapped_campaign.iter_chunks(
            chunk_size=333, columns=["bandwidth_mbps"])),
    )
    for chunks in partitions:
        assert poisson_bootstrap_ci(
            chunks, seed=5, n_resamples=150, statistic=statistic
        ) == expected


@pytest.mark.parametrize("statistic", ["mean", "sum"])
def test_bootstrap_stream_equals_oracle_at_1000_resamples(campaign, statistic):
    """The default resample count over 1025 rows: the tail block holds
    a single row."""
    values = campaign.bandwidth[:BOOTSTRAP_BLOCK_ROWS + 1]
    expected = poisson_bootstrap(
        values, seed=8, n_resamples=1000, statistic=statistic
    )
    for chunks in (values, [values[:700], values[700:]]):
        assert poisson_bootstrap_ci(
            chunks, seed=8, n_resamples=1000, statistic=statistic
        ) == expected


def _assert_kernel_is_the_search(u):
    mult = _poisson_multiplicities(u)
    expected = np.searchsorted(_POISSON_CDF, u, side="right")
    assert mult.shape == expected.shape
    assert mult.tolist() == expected.tolist()
    return mult


def test_multiplicities_at_the_table_edges():
    """Each entry, its neighbours on both sides, 0.0 and the largest
    double below 1.0 (which draws the table's maximum, 18)."""
    below_one = np.nextafter(1.0, 0.0)
    u = np.concatenate([
        _POISSON_CDF,
        np.nextafter(_POISSON_CDF, 0.0),
        np.nextafter(_POISSON_CDF, 2.0),
        [0.0, below_one],
    ])
    mult = _assert_kernel_is_the_search(u)
    assert mult[-2:].tolist() == [0, 18]


def test_multiplicities_on_philox_blocks():
    """Words as the stream reads them, flat and as ``(R, blen)`` blocks;
    the set holds a block with no uniform past the compared head and
    one with a multiplicity of 8 or more."""
    head = _POISSON_CDF[_POISSON_HEAD - 1]
    tailless = large = 0
    for seed in range(5):
        for shape in ((7, 9), (200, 1024), (150, 928)):
            words = uniform_block(
                seed, SLOT_BOOTSTRAP, seed * shape[0] * BOOTSTRAP_BLOCK_ROWS,
                shape[0] * shape[1],
            )
            _assert_kernel_is_the_search(words)
            mult = _assert_kernel_is_the_search(words.reshape(shape))
            tailless += not (words >= head).any()
            large += mult.max() >= 8
    assert tailless and large


@pytest.mark.parametrize("split", [1, 512, 1024, 1027, 2999])
def test_bootstrap_chunking_invariant(campaign, split):
    values = campaign.bandwidth[:3000]
    whole = poisson_bootstrap_ci(values, seed=6, n_resamples=100)
    chunked = poisson_bootstrap_ci(
        [values[:split], values[split:]], seed=6, n_resamples=100
    )
    assert chunked == whole


def test_bootstrap_result_mid_stream_leaves_the_stream_unchanged(campaign):
    """Peeking at the interval folds the partial tail block into copies:
    rows fed afterwards still read their own Philox words."""
    values = campaign.bandwidth[:3000]
    one_pass = PoissonBootstrapStream(seed=7, n_resamples=50)
    one_pass.update(values)
    peeked = PoissonBootstrapStream(seed=7, n_resamples=50)
    peeked.update(values[:1500])
    assert peeked.result() == poisson_bootstrap(
        values[:1500], seed=7, n_resamples=50
    )
    peeked.update(values[1500:])
    assert peeked.result() == one_pass.result()


def test_bootstrap_interval_brackets_point_estimate(campaign):
    values = campaign.bandwidth[:2000]
    stream = PoissonBootstrapStream(seed=7, n_resamples=200)
    stream.update(values)
    point, low, high = stream.result()
    acc = np.zeros(1)
    np.add.at(acc, np.zeros(len(values), np.intp), values)
    assert point == acc[0] / len(values)
    assert low <= point <= high
    # The normal-approximation 95% interval of the mean is
    # +-1.96 standard errors; the bootstrap's width is within 2x of it.
    normal_width = 2 * 1.96 * values.std() / np.sqrt(len(values))
    assert 0.5 * normal_width < high - low < 2 * normal_width


def test_bootstrap_seeds_past_2_63_differ(campaign):
    values = campaign.bandwidth[:50]
    assert poisson_bootstrap_ci(values, seed=2 ** 63) != poisson_bootstrap_ci(
        values, seed=2 ** 63 + 1
    )


def test_bootstrap_largest_seed_runs_without_a_cast_warning(campaign):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        poisson_bootstrap_ci(campaign.bandwidth[:50], seed=2 ** 64 - 1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_bootstrap_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        PoissonBootstrapStream(seed=seed)


def test_bootstrap_validation_errors():
    with pytest.raises(ValueError, match="confidence must be in"):
        PoissonBootstrapStream(seed=0, confidence=1.5)
    with pytest.raises(ValueError, match="need >= 10 resamples"):
        PoissonBootstrapStream(seed=0, n_resamples=3)
    with pytest.raises(ValueError):
        PoissonBootstrapStream(seed=0, statistic="median")
    with pytest.raises(ValueError, match="empty sample"):
        PoissonBootstrapStream(seed=0).result()
