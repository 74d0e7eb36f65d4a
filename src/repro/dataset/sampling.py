"""Batched GMM campaign sampling: vectorized demo campaigns.

The calibrated generator (:mod:`repro.dataset.generator`) composes
radio, device, city and ISP models *row by row*, interleaving many
small RNG draws per record; that per-row stream is what the §3 figure
benchmarks are calibrated against, so it cannot be reordered without
changing their inputs bit-for-bit.  The sharded execution engine's
tests do not need the full population model; they need *many
plausible contexts, fast*.

This module provides that path: every column of the campaign is drawn
in one vectorized numpy operation, and the bandwidth column comes from
**batched Gaussian-mixture sampling** — one
:meth:`repro.core.gmm.GaussianMixture1D.sample` call per technology
(multinomial component split + per-component normal draws on whole
arrays) instead of one mixture draw per row.  Generating 100k rows
costs milliseconds, and the result is a perfectly ordinary
:class:`~repro.dataset.records.Dataset`.

Determinism: the entire campaign is a pure function of ``seed`` — the
column draw order is fixed, technologies are filled in sorted order,
and nothing depends on process, shard, or wall clock.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.gmm import GaussianMixture1D
from repro.dataset.records import Dataset, SCHEMA

#: Per-technology bandwidth mixtures for demo campaigns, shaped after
#: the paper's §3 headline numbers (4G median ~22 / mean ~53; 5G band
#: means ~100-330; WiFi generation means ~59/208/345).  These are demo
#: defaults, not the calibrated models — fitted registries come from
#: :class:`repro.core.registry.BandwidthModelRegistry`.
DEMO_MIXTURES: Dict[str, GaussianMixture1D] = {
    "4G": GaussianMixture1D(
        weights=(0.55, 0.35, 0.10),
        means=(22.0, 60.0, 150.0),
        sigmas=(8.0, 20.0, 40.0),
    ),
    "5G": GaussianMixture1D(
        weights=(0.40, 0.40, 0.20),
        means=(105.0, 310.0, 600.0),
        sigmas=(30.0, 80.0, 120.0),
    ),
    "WiFi4": GaussianMixture1D(
        weights=(0.70, 0.30), means=(45.0, 85.0), sigmas=(15.0, 25.0)
    ),
    "WiFi5": GaussianMixture1D(
        weights=(0.60, 0.40), means=(150.0, 295.0), sigmas=(50.0, 80.0)
    ),
    "WiFi6": GaussianMixture1D(
        weights=(0.50, 0.50), means=(250.0, 450.0), sigmas=(80.0, 120.0)
    ),
}

#: Technology mix of a demo campaign.
DEMO_TECH_SHARES: Dict[str, float] = {
    "4G": 0.35,
    "5G": 0.30,
    "WiFi4": 0.10,
    "WiFi5": 0.15,
    "WiFi6": 0.10,
}

_BAND_BY_TECH = {
    "4G": "B3",
    "5G": "N78",
    "WiFi4": "2.4GHz",
    "WiFi5": "5GHz",
    "WiFi6": "5GHz",
}

_CHANNEL_BY_TECH = {
    "4G": 20.0,
    "5G": 100.0,
    "WiFi4": 40.0,
    "WiFi5": 80.0,
    "WiFi6": 160.0,
}

#: Floor applied to sampled bandwidths (a mixture tail can dip
#: non-physical).
MIN_BANDWIDTH_MBPS = 1.0


def batch_gmm_bandwidths(
    techs: np.ndarray,
    rng: np.random.Generator,
    mixtures: Optional[Mapping[str, GaussianMixture1D]] = None,
) -> np.ndarray:
    """Bandwidths for an array of technology labels, one *batched*
    mixture draw per distinct technology.

    Technologies are visited in sorted order and their rows filled by
    boolean scatter, so the result depends only on ``techs`` and the
    RNG state — never on row grouping or chunking.
    """
    mixtures = DEMO_MIXTURES if mixtures is None else mixtures
    out = np.empty(len(techs), dtype=np.float64)
    for tech in sorted(set(techs.tolist())):
        try:
            mixture = mixtures[tech]
        except KeyError:
            raise KeyError(
                f"no mixture for tech {tech!r} "
                f"(have {sorted(mixtures)})"
            ) from None
        mask = techs == tech
        out[mask] = mixture.sample(int(mask.sum()), rng)
    return np.maximum(out, MIN_BANDWIDTH_MBPS)


def demo_campaign(
    n_tests: int,
    seed: int = 0,
    tech_shares: Optional[Mapping[str, float]] = None,
    mixtures: Optional[Mapping[str, GaussianMixture1D]] = None,
) -> Dataset:
    """A fully vectorized synthetic campaign for engine-scale tooling.

    Every column is one numpy draw; the bandwidth column uses
    :func:`batch_gmm_bandwidths`.  The campaign is a pure function of
    ``(n_tests, seed, tech_shares, mixtures)``.
    """
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests}")
    shares = dict(DEMO_TECH_SHARES if tech_shares is None else tech_shares)
    if not shares:
        raise ValueError("tech_shares must be non-empty")
    total = float(sum(shares.values()))
    if total <= 0:
        raise ValueError("tech shares must sum to a positive value")
    names = sorted(shares)
    probs = np.array([shares[t] / total for t in names])

    rng = np.random.default_rng(seed)
    n = n_tests
    techs = rng.choice(np.array(names, dtype=object), size=n, p=probs)
    cellular = np.isin(techs, ("3G", "4G", "5G"))

    columns: Dict[str, np.ndarray] = {
        "test_id": np.arange(1, n + 1, dtype=np.int64),
        "user_id": rng.integers(1, max(2, n // 3 + 1), size=n, dtype=np.int64),
        "year": np.full(n, 2021, dtype=np.int16),
        "hour": rng.integers(0, 24, size=n, dtype=np.int8),
        "tech": techs,
        "isp": rng.integers(1, 5, size=n, dtype=np.int8),
        "city_id": rng.integers(1, 340, size=n, dtype=np.int32),
        "city_tier": rng.choice(
            np.array(["mega", "medium", "small"], dtype=object),
            size=n,
            p=[0.3, 0.4, 0.3],
        ),
        "urban": rng.random(n) < 0.7,
        "dense_urban": rng.random(n) < 0.25,
        "band": np.array([_BAND_BY_TECH[t] for t in techs], dtype=object),
        "channel_mhz": np.array([_CHANNEL_BY_TECH[t] for t in techs]),
        "rss_level": np.where(
            cellular, rng.integers(1, 6, size=n), 0
        ).astype(np.int8),
        "rsrp_dbm": np.where(cellular, rng.uniform(-120.0, -70.0, size=n), np.nan),
        "snr_db": np.where(cellular, rng.uniform(0.0, 30.0, size=n), np.nan),
        "android_version": rng.integers(8, 14, size=n).astype(np.int8),
        "vendor": np.full(n, "demo", dtype=object),
        "device_model": np.full(n, "demo-device", dtype=object),
        "plan_mbps": np.where(cellular, 0, 300).astype(np.int32),
        "cell_load": rng.uniform(0.05, 0.95, size=n),
        "lte_advanced": techs == "4G",
        "sleeping": np.zeros(n, dtype=bool),
    }
    columns["bandwidth_mbps"] = batch_gmm_bandwidths(
        techs, rng, mixtures=mixtures
    )
    # Home-path columns: the GMM demo draws a single bandwidth, so the
    # per-hop decomposition is absent.
    columns["air_mbps"] = np.zeros(n)
    columns["wire_mbps"] = np.zeros(n)
    columns["xtraffic_mbps"] = np.zeros(n)
    columns["bottleneck"] = np.zeros(n, dtype=np.int8)
    columns["bottleneck_attr"] = np.zeros(n, dtype=np.int8)
    assert set(columns) == set(SCHEMA)
    return Dataset(columns)
