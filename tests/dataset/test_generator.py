"""Campaign generator: schema integrity and calibrated statistics.

Quantitative checks use generous tolerances: the campaign fixtures are
40k/25k tests, far smaller than the paper's 23.6M, so sampling noise is
material.  The *orderings* (who is faster than whom) are the paper's
claims and are asserted strictly.
"""

import warnings

import numpy as np
import pytest

from repro.dataset.generator import (
    CampaignConfig,
    TECH_SHARES,
    generate_campaign,
)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(year=2019)
    with pytest.raises(ValueError):
        CampaignConfig(n_tests=0)


def test_2021_config_gets_refarming_by_default():
    config = CampaignConfig(year=2021, n_tests=10)
    assert config.refarming is not None
    config20 = CampaignConfig(year=2020, n_tests=10)
    assert config20.refarming is None


def test_generation_is_deterministic():
    a = generate_campaign(CampaignConfig(n_tests=500, seed=9))
    b = generate_campaign(CampaignConfig(n_tests=500, seed=9))
    assert np.array_equal(a.bandwidth, b.bandwidth)
    assert list(a.column("tech")) == list(b.column("tech"))


def test_different_seeds_differ():
    a = generate_campaign(CampaignConfig(n_tests=500, seed=9))
    b = generate_campaign(CampaignConfig(n_tests=500, seed=10))
    assert not np.array_equal(a.bandwidth, b.bandwidth)


def test_neighbouring_seeds_past_2_63_differ():
    a = generate_campaign(CampaignConfig(n_tests=300, seed=2 ** 63))
    b = generate_campaign(CampaignConfig(n_tests=300, seed=2 ** 63 + 1))
    assert list(a.column("tech")) != list(b.column("tech"))


def test_largest_seed_generates_without_a_cast_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ds = generate_campaign(CampaignConfig(n_tests=50, seed=2 ** 64 - 1))
    assert len(ds) == 50


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        CampaignConfig(seed=seed)


def test_row_count_and_positive_bandwidth(campaign_2021):
    assert len(campaign_2021) == 40_000
    assert np.all(campaign_2021.bandwidth > 0)


def test_tech_shares_close_to_configuration(campaign_2021):
    counts = campaign_2021.group_counts("tech")
    total = len(campaign_2021)
    for tech, share in TECH_SHARES[2021].items():
        observed = counts.get(tech, 0) / total
        assert observed == pytest.approx(share, abs=0.02)


def test_wifi_records_have_plans_cellular_do_not(campaign_2021):
    wifi = campaign_2021.where(tech="WiFi5")
    assert np.all(wifi.column("plan_mbps") > 0)
    lte = campaign_2021.where(tech="4G")
    assert np.all(lte.column("plan_mbps") == 0)
    assert np.all(lte.column("rss_level") >= 1)
    assert np.all(wifi.column("rss_level") == 0)


def test_cellular_band_ownership_consistent(campaign_2021):
    from repro.dataset.isp import ISPS
    lte = campaign_2021.where(tech="4G")
    bands = lte.column("band")
    isps = lte.column("isp")
    for band, isp in zip(bands.tolist(), isps.tolist()):
        assert band in ISPS[int(isp)].lte_band_weights


def test_4g_average_in_paper_ballpark(campaign_2021):
    mean = campaign_2021.where(tech="4G").mean_bandwidth()
    assert 40 < mean < 70  # paper: 53


def test_4g_heavy_left_tail(campaign_2021):
    lte = campaign_2021.where(tech="4G")
    below10 = float((lte.bandwidth < 10).mean())
    assert 0.15 < below10 < 0.40  # paper: 26.3%


def test_4g_fast_tail_from_lte_advanced(campaign_2021):
    lte = campaign_2021.where(tech="4G")
    above300 = lte.bandwidth > 300
    assert 0.02 < float(above300.mean()) < 0.12  # paper: 6.8%
    # Fast tests are predominantly LTE-Advanced.
    ltea = lte.column("lte_advanced")
    assert float(ltea[above300].mean()) > 0.8


def test_lte_advanced_never_on_rural_band39(campaign_2021):
    lte = campaign_2021.where(tech="4G", band="B39")
    assert not np.any(lte.column("lte_advanced"))


def test_5g_average_in_paper_ballpark(campaign_2021):
    mean = campaign_2021.where(tech="5G").mean_bandwidth()
    assert 240 < mean < 360  # paper: 305


def test_refarmed_thin_bands_slowest_5g(campaign_2021):
    nr = campaign_2021.where(tech="5G")
    means = nr.group_mean_bandwidth("band")
    assert means["N1"] < means["N41"]
    assert means["N28"] < means["N78"]
    # Wide refarmed N41 is comparable to the dedicated N78 (§3.3).
    assert means["N41"] == pytest.approx(means["N78"], rel=0.25)


def test_band3_dominates_lte_tests(campaign_2021):
    counts = campaign_2021.where(tech="4G").group_counts("band")
    total = sum(counts.values())
    assert counts["B3"] / total > 0.40  # paper: 55%


def test_rss_level5_bandwidth_anomaly(campaign_2021):
    """Figure 12: 5G bandwidth rises with RSS level 1-4 then drops at
    level 5 below levels 3 and 4."""
    nr = campaign_2021.where(tech="5G")
    levels = nr.column("rss_level")
    means = {
        l: float(nr.bandwidth[levels == l].mean()) for l in range(1, 6)
    }
    assert means[1] < means[2] < means[3] < means[4]
    assert means[5] < means[4]
    assert means[5] < means[3]


def test_4g_rss_monotone(campaign_2021):
    """For mature 4G, RSS and bandwidth correlate positively (§3.3)."""
    lte = campaign_2021.where(tech="4G")
    levels = lte.column("rss_level")
    means = [float(lte.bandwidth[levels == l].mean()) for l in range(1, 6)]
    assert means[0] < means[-1]


def test_year_over_year_decline(campaign_2020, campaign_2021):
    """The paper's headline: 4G and 5G averages FELL from 2020 to 2021
    while WiFi stagnated."""
    assert (
        campaign_2021.where(tech="4G").mean_bandwidth()
        < campaign_2020.where(tech="4G").mean_bandwidth()
    )
    assert (
        campaign_2021.where(tech="5G").mean_bandwidth()
        < campaign_2020.where(tech="5G").mean_bandwidth()
    )


def test_overall_cellular_average_still_rises(campaign_2020, campaign_2021):
    """...yet the 'average overall' cellular bandwidth rose, because 5G
    adoption doubled (§3.1)."""
    def cellular_mean(ds):
        mask = np.isin(ds.column("tech"), ["3G", "4G", "5G"])
        return float(ds.bandwidth[mask].mean())

    assert cellular_mean(campaign_2021) > cellular_mean(campaign_2020)


def test_android_version_effect(campaign_2021):
    """Figure 2: newer Android versions see higher bandwidth."""
    wifi = campaign_2021.where(tech="WiFi5")
    versions = wifi.column("android_version")
    old = wifi.bandwidth[versions <= 8]
    new = wifi.bandwidth[versions >= 11]
    assert float(new.mean()) > float(old.mean())


def test_urban_beats_rural_for_cellular(campaign_2021):
    for tech in ("4G", "5G"):
        sub = campaign_2021.where(tech=tech)
        urban = sub.where(urban=True).mean_bandwidth()
        rural = sub.where(urban=False).mean_bandwidth()
        assert urban > rural


def test_sleeping_flag_only_in_window(campaign_2021):
    nr = campaign_2021.where(tech="5G")
    hours = nr.column("hour")
    sleeping = nr.column("sleeping")
    for hour, asleep in zip(hours.tolist(), sleeping.tolist()):
        in_window = hour >= 21 or hour < 9
        assert asleep == in_window
    # 4G never sleeps.
    assert not np.any(campaign_2021.where(tech="4G").column("sleeping"))
