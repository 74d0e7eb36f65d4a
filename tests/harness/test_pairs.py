"""Back-to-back pair campaigns (Figures 20-22 mechanics)."""

import numpy as np
import pytest

from repro.harness.pairs import (
    PairCampaign,
    environment_for_record,
    run_pair_campaign,
)


@pytest.fixture(scope="module")
def small_campaign(request):
    """A 24-pair campaign shared across this module's tests."""
    campaign_2021 = request.getfixturevalue("campaign_2021")
    registry = request.getfixturevalue("registry")
    return run_pair_campaign(
        campaign_2021, registry, n_pairs=24,
        techs=["4G", "5G", "WiFi5"], seed=77,
    )


def test_environment_for_record_builds_valid_env(rng):
    env = environment_for_record(200.0, "5G", rng)
    assert env.tech == "5G"
    assert len(env.servers) == 10
    assert env.true_capacity(0.0) > 0


def test_shaped_link_never_throttles_above_capacity():
    """A sub-megabit context used to get a 1 Mbps throttle above its
    own capacity, which ShapedTrace rejects."""
    from repro.netsim.trace import ShapedTrace

    shaped = 0
    for seed in range(2000):
        env = environment_for_record(
            0.4, "4G", np.random.default_rng(seed)
        )
        trace = env.access.trace
        if isinstance(trace, ShapedTrace):
            shaped += 1
            assert trace.throttled_mbps == 0.4
    assert shaped, "expected some shaped links in 2000 draws"


def test_sub_megabit_context_does_not_crash_campaign():
    """The seeded context below 1 Mbps that used to crash the whole
    campaign from ``row_environment``, outside the retry loop."""
    from repro.dataset.generator import CampaignConfig as GenerationConfig
    from repro.dataset.generator import generate_campaign
    from repro.harness.config import CampaignConfig
    from repro.harness.parallel import run_campaign

    contexts = generate_campaign(
        GenerationConfig(year=2021, n_tests=2000, seed=5000)
    )
    slow = contexts.filter(contexts.bandwidth < 1.0)
    assert len(slow) == 1
    for mode in ("auto", "oracle"):
        report = run_campaign(slow, CampaignConfig(seed=3, mode=mode))
        assert report.n_measured + report.n_quarantined == 1


def test_pair_count_and_techs(small_campaign):
    assert len(small_campaign.observations) == 24
    assert set(small_campaign.techs()) <= {"4G", "5G", "WiFi5"}


def test_swiftest_far_faster_than_btsapp(small_campaign):
    durations = small_campaign.swiftest_durations()
    assert durations.mean() < 2.0
    assert durations.max() < 5.5
    for obs in small_campaign.observations:
        assert obs.btsapp.duration_s == pytest.approx(10.0)


def test_data_usage_reduction(small_campaign):
    sw = small_campaign.data_usage_mb("swiftest")
    bts = small_campaign.data_usage_mb("bts-app")
    assert bts.mean() / sw.mean() > 3.0  # paper: 8.2-9x


def test_deviations_small(small_campaign):
    devs = small_campaign.deviations()
    assert devs.mean() < 0.12  # paper: 5.1%
    assert np.median(devs) < 0.08  # paper: 3.0%


def test_summary_keys(small_campaign):
    summary = small_campaign.summary()
    assert "overall" in summary
    row = summary["overall"]
    assert set(row) == {
        "mean_duration_s", "median_duration_s", "max_duration_s",
        "mean_deviation", "median_deviation", "swiftest_mb",
        "btsapp_mb", "usage_reduction",
    }


def test_unknown_service_rejected(small_campaign):
    with pytest.raises(ValueError):
        small_campaign.data_usage_mb("speedy")


def test_run_pair_campaign_validation(campaign_2021, registry):
    with pytest.raises(ValueError):
        run_pair_campaign(campaign_2021, registry, n_pairs=0)
    with pytest.raises(ValueError):
        run_pair_campaign(
            campaign_2021, registry, n_pairs=10_000_000, techs=["5G"]
        )


def test_campaign_is_reproducible(campaign_2021, registry):
    a = run_pair_campaign(campaign_2021, registry, 4, seed=5, techs=["WiFi5"])
    b = run_pair_campaign(campaign_2021, registry, 4, seed=5, techs=["WiFi5"])
    assert [o.swiftest.bandwidth_mbps for o in a.observations] == [
        o.swiftest.bandwidth_mbps for o in b.observations
    ]


def test_empty_campaign_views():
    campaign = PairCampaign()
    assert campaign.techs() == []
    assert len(campaign.deviations()) == 0
