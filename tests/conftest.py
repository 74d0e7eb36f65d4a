"""Shared fixtures: session-scoped campaigns and fitted registries.

Campaign generation is the most expensive setup in the suite, so the
2020/2021 datasets and the model registry are generated once and
shared; tests must treat them as read-only.
"""

import numpy as np
import pytest

from repro.core.registry import BandwidthModelRegistry
from repro.dataset.generator import CampaignConfig, generate_campaign

#: Techs with enough samples in the session campaigns for model fits.
MODEL_TECHS = ["4G", "5G", "WiFi4", "WiFi5", "WiFi6"]


@pytest.fixture(scope="session")
def campaign_2021():
    """A 40k-test 2021 (post-refarming) campaign."""
    return generate_campaign(CampaignConfig(year=2021, n_tests=40_000, seed=101))


@pytest.fixture(scope="session")
def campaign_2020():
    """A 25k-test 2020 (pre-refarming) campaign."""
    return generate_campaign(CampaignConfig(year=2020, n_tests=25_000, seed=102))


@pytest.fixture(scope="session")
def registry(campaign_2021):
    """Bandwidth models fitted from the 2021 campaign."""
    return BandwidthModelRegistry().fit_from_dataset(
        campaign_2021, techs=MODEL_TECHS, rng=np.random.default_rng(0)
    )


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def registered_test(monkeypatch):
    """``registered_test(name, factory)`` puts a fake bandwidth test in
    the registry for one test and returns ``name``.

    A campaign builds its service from ``CampaignConfig.test``, so a
    fake enters a run the way real tests do — by registry name — and
    shard workers forked from the test process see it too.  The
    registry is restored when the test ends.
    """
    from repro.core.variants import _BANDWIDTH_TESTS

    def register(name, factory):
        monkeypatch.setitem(_BANDWIDTH_TESTS, name, factory)
        return name

    return register


@pytest.fixture
def loopback_oracle_forks_early(monkeypatch):
    """Give ``mode="oracle"`` loopback runs the per-row engine's floor of
    ``PER_ROW_ROWS_PER_WORKER`` rows a worker instead of their own
    (``PER_ROW_LOOPBACK_ROWS_PER_WORKER``), so that tests of the shard
    machinery fork workers over a few dozen cheap rows.  Results never
    depend on the floor; only the number of workers forked does."""
    from repro.harness import runtime

    monkeypatch.setattr(runtime, "_PER_ROW_LOOPBACK", runtime._PER_ROW)
