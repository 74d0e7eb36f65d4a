"""Cities, devices, and ISP population models."""

import numpy as np
import pytest

from repro.dataset.cities import (
    CITY_TIERS,
    make_cities,
    sample_city,
    urban_factor,
)
from repro.dataset.devices import (
    ANDROID_VERSION_FACTORS,
    ANDROID_VERSION_SHARES,
    DevicePopulation,
    MODEL_SIGMA,
    N_MODELS,
    N_VENDORS,
)
from repro.dataset.isp import (
    CELLULAR_ISP_SHARES,
    ISPS,
    sample_isp,
    sample_wifi_isp,
)


# -- cities ----------------------------------------------------------------


def test_city_counts_match_paper():
    # 21 mega + 51 medium + 254 small (§3.1).
    cities = make_cities(np.random.default_rng(0))
    assert len(cities) == 326
    by_tier = {}
    for city in cities:
        by_tier[city.tier] = by_tier.get(city.tier, 0) + 1
    assert by_tier == {"mega": 21, "medium": 51, "small": 254}


def per_city_reference(rng):
    """The population drawn one scalar at a time: each city's three
    attributes in turn, each clipped as a Python float."""
    medians = {
        "mega": (1.18, 0.82, 1.15),
        "medium": (1.00, 0.92, 1.00),
        "small": (0.85, 1.00, 0.88),
    }
    cities = []
    for tier, count, _ in CITY_TIERS:
        infra_mu, cont_mu, wifi_mu = medians[tier]
        for _ in range(count):
            infrastructure = float(
                np.clip(rng.lognormal(np.log(infra_mu), 0.18), 0.5, 1.8)
            )
            contention = float(
                np.clip(rng.lognormal(np.log(cont_mu), 0.12), 0.5, 1.2)
            )
            wifi_quality = float(
                np.clip(rng.lognormal(np.log(wifi_mu), 0.12), 0.5, 1.6)
            )
            cities.append((len(cities), tier, infrastructure, contention,
                           wifi_quality))
    return cities


@pytest.mark.parametrize("seed", [0, 1, 7, 20220801, 2**64 - 1])
def test_make_cities_equals_per_city_draws(seed):
    """One draw call gives every field of every city bit for bit, and
    leaves the generator where the per-city loop leaves it."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cities = make_cities(rng)
    reference = per_city_reference(ref_rng)
    assert len(cities) == len(reference)
    for city, (city_id, tier, infra, cont, wifi) in zip(cities, reference):
        assert city.city_id == city_id
        assert city.tier == tier
        for got, want in ((city.infrastructure, infra),
                          (city.contention, cont),
                          (city.wifi_quality, wifi)):
            assert type(got) is float
            assert got.hex() == want.hex()
    assert rng.random() == ref_rng.random()


def test_city_ids_unique():
    cities = make_cities(np.random.default_rng(0))
    assert len({c.city_id for c in cities}) == len(cities)


def test_mega_cities_have_better_infra_but_more_contention():
    cities = make_cities(np.random.default_rng(1))
    mega = [c for c in cities if c.tier == "mega"]
    small = [c for c in cities if c.tier == "small"]
    assert np.mean([c.infrastructure for c in mega]) > np.mean(
        [c.infrastructure for c in small]
    )
    assert np.mean([c.contention for c in mega]) < np.mean(
        [c.contention for c in small]
    )


def test_sample_city_prefers_populous_tiers(rng):
    cities = make_cities(np.random.default_rng(2))
    draws = [sample_city(cities, rng).tier for _ in range(3000)]
    share_mega = draws.count("mega") / len(draws)
    expected = dict((t, s) for t, _, s in CITY_TIERS)["mega"]
    assert share_mega == pytest.approx(expected, abs=0.05)


def test_urban_factor_mean_preserving():
    from repro.dataset.cities import URBAN_TEST_SHARE
    for gen in ("4G", "5G"):
        mean = (
            URBAN_TEST_SHARE * urban_factor(gen, True)
            + (1 - URBAN_TEST_SHARE) * urban_factor(gen, False)
        )
        assert mean == pytest.approx(1.0)


def test_urban_factor_advantage_ratio():
    # Raw deployment factors (see cities.URBAN_ADVANTAGE): the observed
    # campaign-level gaps land near the paper's +24%/+33%.
    from repro.dataset.cities import URBAN_ADVANTAGE
    for gen in ("4G", "5G"):
        ratio = urban_factor(gen, True) / urban_factor(gen, False)
        assert ratio == pytest.approx(URBAN_ADVANTAGE[gen])
    assert urban_factor("WiFi5", True) == 1.0  # no effect for WiFi


# -- devices -----------------------------------------------------------------


def test_device_population_sizes():
    pop = DevicePopulation()
    assert len(pop.vendors) == 191
    assert len(pop.models) == 2381


def test_version_factors_monotone():
    versions = sorted(ANDROID_VERSION_FACTORS)
    factors = [ANDROID_VERSION_FACTORS[v] for v in versions]
    assert factors == sorted(factors)


def test_version_shares_sum_to_one():
    assert sum(ANDROID_VERSION_SHARES.values()) == pytest.approx(1.0)


def test_high_end_devices_run_newer_android(rng):
    pop = DevicePopulation()
    high_versions, low_versions = [], []
    for _ in range(3000):
        vendor, model, version = pop.sample_device(rng)
        tier = pop.model_tier[model]
        if tier == "high":
            high_versions.append(version)
        elif tier == "low":
            low_versions.append(version)
    assert np.mean(high_versions) > np.mean(low_versions)


def test_bandwidth_factor_version_dominates_model(rng):
    """Same-version models differ far less than cross-version devices
    — the paper's §3.1 finding."""
    pop = DevicePopulation()
    same_version = [
        pop.bandwidth_factor(m, 11) for m in pop.models[:300]
    ]
    assert np.std(same_version) / np.mean(same_version) < 2 * MODEL_SIGMA
    v5 = pop.bandwidth_factor(pop.models[0], 5)
    v12 = pop.bandwidth_factor(pop.models[0], 12)
    assert v12 / v5 > 1.5


def choice_reference_population(rng_seed):
    """DevicePopulation's per-model draws through ``Generator.choice``,
    the way the population was first built."""
    rng = np.random.default_rng(rng_seed)
    ranks = np.arange(1, N_VENDORS + 1)
    vendor_probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    vendor, tier, factor = {}, {}, {}
    for i in range(N_MODELS):
        model = f"model-{i:04d}"
        vendor_idx = int(rng.choice(N_VENDORS, p=vendor_probs))
        vendor[model] = f"vendor-{vendor_idx:03d}"
        tier[model] = str(
            rng.choice(["low", "mid", "high"], p=[0.35, 0.45, 0.20])
        )
        factor[model] = float(
            np.clip(rng.lognormal(0.0, MODEL_SIGMA), 0.8, 1.25)
        )
    return vendor, tier, factor


def choice_reference_version(tier, rng):
    """``DevicePopulation._sample_version`` through ``Generator.choice``."""
    versions = sorted(ANDROID_VERSION_SHARES)
    base = np.array([ANDROID_VERSION_SHARES[v] for v in versions])
    tilt = {"low": -1.0, "mid": 0.0, "high": 1.5}[tier]
    weights = base * np.exp(tilt * (np.array(versions) - 9) / 3.0)
    return int(rng.choice(versions, p=weights / weights.sum()))


@pytest.mark.parametrize("seed", [20210801, 20220803, 7, 0, 2**40])
def test_population_draws_match_choice_reference(seed):
    pop = DevicePopulation(rng_seed=seed)
    vendor, tier, factor = choice_reference_population(seed)
    assert pop.model_vendor == vendor
    assert pop.model_tier == tier
    assert pop.model_factor == factor
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(300):
        got = pop.sample_device(ours)
        model = pop.models[int(theirs.integers(N_MODELS))]
        version = choice_reference_version(pop.model_tier[model], theirs)
        assert got == (pop.model_vendor[model], model, version)


def test_bandwidth_factor_unknown_version():
    pop = DevicePopulation()
    with pytest.raises(ValueError):
        pop.bandwidth_factor(pop.models[0], 4)


def test_normalization_matches_shares():
    pop = DevicePopulation()
    expected = sum(
        ANDROID_VERSION_FACTORS[v] * s for v, s in ANDROID_VERSION_SHARES.items()
    )
    assert pop.normalization() == pytest.approx(expected)


# -- ISPs -----------------------------------------------------------------


def test_four_isps_with_correct_bands():
    assert set(ISPS) == {1, 2, 3, 4}
    assert set(ISPS[1].lte_band_weights) <= {"B3", "B8", "B34", "B39", "B40", "B41"}
    assert ISPS[4].lte_band_weights == {"B28": 1.0}
    assert ISPS[4].nr_band_weights == {"N28": 1.0}


def test_isp3_traits():
    # ISP-3: favourable N78 placement + heavy broadband investment.
    assert ISPS[3].nr_coverage_bonus_db > 0
    assert ISPS[3].broadband_uplift > 1.0


def test_sample_band_respects_ownership(rng):
    for _ in range(200):
        band = ISPS[2].sample_band("4G", rng)
        assert band in ISPS[2].lte_band_weights


def test_sample_band_without_deployment():
    isp = ISPS[1]
    with pytest.raises(ValueError):
        # Construct a degenerate ISP for the error path.
        type(isp)(
            isp_id=9, name="x", lte_band_weights={}, nr_band_weights={}
        ).sample_band("4G", np.random.default_rng(0))


def test_sample_isp_follows_shares(rng):
    draws = [sample_isp(2021, "5G", rng).isp_id for _ in range(4000)]
    share_1 = draws.count(1) / len(draws)
    assert share_1 == pytest.approx(CELLULAR_ISP_SHARES[(2021, "5G")][1], abs=0.04)


def test_sample_isp_unknown_year():
    with pytest.raises(KeyError):
        sample_isp(2019, "4G", np.random.default_rng(0))


def test_sample_wifi_isp(rng):
    assert sample_wifi_isp(rng).isp_id in (1, 2, 3, 4)


def test_band3_within_isp_shares_match_paper():
    # §3.2: Band-3 share within ISP-1/2/3 ≈ 31% / 63% / 76%.
    assert ISPS[1].lte_band_weights["B3"] == pytest.approx(0.31, abs=0.02)
    assert ISPS[2].lte_band_weights["B3"] == pytest.approx(0.63, abs=0.02)
    assert ISPS[3].lte_band_weights["B3"] == pytest.approx(0.76, abs=0.02)
