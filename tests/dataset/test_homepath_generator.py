"""Home-path campaign generation: dual-bottleneck WiFi rows."""

import numpy as np
import pytest

from repro.dataset.records import SCHEMA
from repro.dataset.generator import (
    CampaignConfig,
    WIFI_RSS_LEVEL_PROBS,
    XTRAFFIC_ACTIVE_PROB,
    generate_campaign,
)
from repro.wifi.homepath import (
    BOTTLENECK_AIR,
    BOTTLENECK_CONTENTION,
    BOTTLENECK_NONE,
    BOTTLENECK_PLAN,
    RSS_AIR_FACTOR,
)

WIFI = ("WiFi4", "WiFi5", "WiFi6")


@pytest.fixture(scope="module")
def home_path_campaign():
    return generate_campaign(
        CampaignConfig(n_tests=6000, seed=2024, home_path=True)
    )


@pytest.fixture(scope="module")
def legacy_campaign():
    return generate_campaign(CampaignConfig(n_tests=6000, seed=2024))


def wifi_mask(ds):
    return np.isin(ds.column("tech"), list(WIFI))


def assert_datasets_identical(a, b):
    for name in SCHEMA:
        col_a, col_b = a.column(name), b.column(name)
        equal_nan = col_a.dtype.kind == "f"
        assert np.array_equal(col_a, col_b, equal_nan=equal_nan), name


def test_oracle_matches_vectorized_home_path():
    config = CampaignConfig(n_tests=400, seed=9, home_path=True)
    fast = generate_campaign(config)
    slow = generate_campaign(config, chunk_size=1)
    assert_datasets_identical(fast, slow)


def test_chunk_size_invariance_home_path():
    config = CampaignConfig(n_tests=700, seed=31, home_path=True)
    a = generate_campaign(config, chunk_size=64)
    b = generate_campaign(config, chunk_size=701)
    assert_datasets_identical(a, b)


def test_non_wifi_rows_untouched_by_home_path(home_path_campaign,
                                              legacy_campaign):
    """The home-path flag draws from fresh slots: cellular rows are
    byte-identical with it on or off."""
    mask = ~wifi_mask(home_path_campaign)
    assert np.array_equal(mask, ~wifi_mask(legacy_campaign))
    for name in SCHEMA:
        hp = home_path_campaign.column(name)[mask]
        legacy = legacy_campaign.column(name)[mask]
        equal_nan = hp.dtype.kind == "f"
        assert np.array_equal(hp, legacy, equal_nan=equal_nan), name


def test_undisturbed_wifi_rows_identical_to_legacy(home_path_campaign,
                                                   legacy_campaign):
    """Strong-signal, uncontended home-path rows reproduce the legacy
    bandwidth exactly — the byte-identity acceptance criterion."""
    hp, legacy = home_path_campaign, legacy_campaign
    mask = (
        wifi_mask(hp)
        & (hp.column("rss_level") == 5)            # no attenuation
        & (hp.column("xtraffic_mbps") == 0.0)      # no LAN competitor
    )
    assert mask.sum() > 200
    assert np.array_equal(hp.column("bandwidth_mbps")[mask],
                          legacy.column("bandwidth_mbps")[mask])
    assert np.array_equal(hp.column("plan_mbps")[mask],
                          legacy.column("plan_mbps")[mask])


def test_legacy_campaign_new_columns(legacy_campaign):
    """Without the flag the per-hop decomposition is still recorded
    (air = link, no cross traffic) and WiFi rss_level stays 0."""
    ds = legacy_campaign
    wifi = wifi_mask(ds)
    assert np.all(ds.column("rss_level")[wifi] == 0)
    assert np.all(ds.column("xtraffic_mbps") == 0.0)
    assert np.all(ds.column("bottleneck_attr") == BOTTLENECK_NONE)
    labels = ds.column("bottleneck")[wifi]
    assert set(np.unique(labels)) <= {BOTTLENECK_AIR, BOTTLENECK_PLAN}
    assert np.all(ds.column("bottleneck")[~wifi] == BOTTLENECK_NONE)


def test_home_path_wifi_rows_fully_labelled(home_path_campaign):
    ds = home_path_campaign
    wifi = wifi_mask(ds)
    labels = ds.column("bottleneck")[wifi]
    assert np.all(labels != BOTTLENECK_NONE)
    counts = {code: int((labels == code).sum())
              for code in (BOTTLENECK_AIR, BOTTLENECK_PLAN,
                           BOTTLENECK_CONTENTION)}
    assert all(count > 100 for count in counts.values()), counts
    assert np.all(ds.column("bottleneck")[~wifi] == BOTTLENECK_NONE)


def test_labels_consistent_with_recorded_hops(home_path_campaign):
    """Recorded (air, wire, xtraffic) always reproduce the bandwidth
    and the label via the closed-form allocation."""
    from repro.dataset.kernels import home_path_allocation
    from repro.dataset.generator import DevicePopulation  # noqa: F401

    ds = home_path_campaign
    wifi = wifi_mask(ds)
    air = ds.column("air_mbps")[wifi]
    wire = ds.column("wire_mbps")[wifi]
    x = ds.column("xtraffic_mbps")[wifi]
    allocated, hop = home_path_allocation(air, wire, x)
    assert np.array_equal(hop, ds.column("bottleneck")[wifi])
    # bandwidth = allocated * device factor <= allocated * 1.25 & > 0.
    bandwidth = ds.column("bandwidth_mbps")[wifi]
    ratio = bandwidth / allocated
    assert np.all(ratio > 0.4) and np.all(ratio < 1.6)


def test_wifi_rss_levels_follow_configured_probs(home_path_campaign):
    ds = home_path_campaign
    wifi = wifi_mask(ds)
    levels = ds.column("rss_level")[wifi]
    assert set(np.unique(levels)) == {1, 2, 3, 4, 5}
    n = len(levels)
    for level, prob in enumerate(WIFI_RSS_LEVEL_PROBS, start=1):
        share = float((levels == level).sum() / n)
        assert share == pytest.approx(prob, abs=0.03)


def test_weak_signal_attenuates_air(home_path_campaign):
    ds = home_path_campaign
    wifi = wifi_mask(ds)
    levels = ds.column("rss_level")[wifi]
    air = ds.column("air_mbps")[wifi]
    techs = ds.column("tech")[wifi]
    # Within one standard, weak signal means a slower air link on
    # average — ratio roughly tracking RSS_AIR_FACTOR.
    sub = techs == "WiFi5"
    weak = air[sub & (levels == 1)].mean()
    strong = air[sub & (levels == 5)].mean()
    assert weak / strong < RSS_AIR_FACTOR[1] * 2.0
    assert weak < strong


def test_cross_traffic_share_in_configured_range(home_path_campaign):
    ds = home_path_campaign
    wifi = wifi_mask(ds)
    x = ds.column("xtraffic_mbps")[wifi]
    air = ds.column("air_mbps")[wifi]
    active = x > 0
    assert float(active.mean()) == pytest.approx(XTRAFFIC_ACTIVE_PROB,
                                                 abs=0.03)
    share = x[active] / air[active]
    assert share.min() >= 0.35 - 1e-9
    assert share.max() <= 0.80 + 1e-9


def test_plan_tier_modes_survive_home_path(home_path_campaign):
    """Plan-limited WiFi rows still cluster at plan x delivery — the
    paper's Gaussian plan-tier modes survive the topology refactor."""
    ds = home_path_campaign
    wifi = wifi_mask(ds)
    plan_limited = wifi & (ds.column("bottleneck") == BOTTLENECK_PLAN)
    plans = ds.column("plan_mbps")[plan_limited]
    wire = ds.column("wire_mbps")[plan_limited]
    for tier in (100, 200, 300):
        at_tier = plans == tier
        if at_tier.sum() < 30:
            continue
        assert np.mean(wire[at_tier]) == pytest.approx(tier * 0.96, rel=0.05)
