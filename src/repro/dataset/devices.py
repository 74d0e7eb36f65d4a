"""Device population: vendors, models, and Android versions (§3.1).

The paper's key device finding: the *Android version* — not the
hardware tier — statistically determines access bandwidth, because the
OS's cellular/WiFi management modules improved across releases.  Given
the same version, low-end and high-end models differ by ≤23 Mbps
standard deviation.  We model this with a per-version multiplicative
factor (normalised to population mean 1) plus small model-level noise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Relative bandwidth factor by Android major version (Figure 2's
#: monotone trend).  Normalised against the version distribution at
#: generation time so tech-level averages are unaffected.
ANDROID_VERSION_FACTORS: Dict[int, float] = {
    5: 0.50,
    6: 0.58,
    7: 0.66,
    8: 0.76,
    9: 0.86,
    10: 0.95,
    11: 1.02,
    12: 1.08,
}

#: Install-base share by Android version (2021-era distribution).
ANDROID_VERSION_SHARES: Dict[int, float] = {
    5: 0.01,
    6: 0.02,
    7: 0.04,
    8: 0.07,
    9: 0.12,
    10: 0.27,
    11: 0.32,
    12: 0.15,
}

#: Number of phone vendors and device models in the study (§3.1).
N_VENDORS = 191
N_MODELS = 2381

#: Residual per-model bandwidth spread at a fixed Android version, in
#: multiplicative terms; calibrated so the induced standard deviation
#: stays within the paper's ≤23 Mbps bound for same-version models.
MODEL_SIGMA = 0.05


def _choice_cdf(p) -> List[float]:
    """The CDF ``Generator.choice(..., p=p)`` inverts: the running sum
    of ``p`` over its total."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _choose(cdf: List[float], rng: np.random.Generator) -> int:
    """The index ``Generator.choice(len(cdf), p=p)`` draws: one
    ``random()``, inverted through :func:`_choice_cdf`'s CDF."""
    return bisect.bisect_right(cdf, rng.random())


@dataclass
class DevicePopulation:
    """Synthetic vendor/model/version population.

    Construction assigns each model a vendor and a hardware tier; the
    hardware tier correlates with the *version distribution* a model
    runs (newer hardware ships newer Android), which is exactly the
    confounder the paper untangles.
    """

    rng_seed: int = 20210801
    vendors: List[str] = field(default_factory=list)
    models: List[str] = field(default_factory=list)
    model_vendor: Dict[str, str] = field(default_factory=dict)
    model_tier: Dict[str, str] = field(default_factory=dict)
    model_factor: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.rng_seed)
        self.vendors = [f"vendor-{i:03d}" for i in range(N_VENDORS)]
        # Vendor popularity follows a Zipf-like law.
        ranks = np.arange(1, N_VENDORS + 1)
        self._vendor_probs = (1.0 / ranks) / np.sum(1.0 / ranks)
        self.models = [f"model-{i:04d}" for i in range(N_MODELS)]
        tiers = ["low", "mid", "high"]
        vendor_cdf = _choice_cdf(self._vendor_probs)
        tier_cdf = _choice_cdf([0.35, 0.45, 0.20])
        for model in self.models:
            self.model_vendor[model] = self.vendors[_choose(vendor_cdf, rng)]
            self.model_tier[model] = tiers[_choose(tier_cdf, rng)]
            self.model_factor[model] = min(
                max(rng.lognormal(0.0, MODEL_SIGMA), 0.8), 1.25
            )

    # -- sampling ------------------------------------------------------

    def sample_device(self, rng: np.random.Generator) -> Tuple[str, str, int]:
        """Draw (vendor, model, android_version) for one user.

        Hardware tier biases the version: high-end devices skew to the
        newest releases.  This produces the "high-end phones look
        faster" illusion the paper debunks — the speed comes from the
        version, not the silicon.
        """
        model = self.models[int(rng.integers(N_MODELS))]
        vendor = self.model_vendor[model]
        tier = self.model_tier[model]
        version = self._sample_version(tier, rng)
        return vendor, model, version

    def _sample_version(self, tier: str, rng: np.random.Generator) -> int:
        versions = sorted(ANDROID_VERSION_SHARES)
        base = np.array([ANDROID_VERSION_SHARES[v] for v in versions])
        # Tilt the distribution by hardware tier.
        tilt = {"low": -1.0, "mid": 0.0, "high": 1.5}[tier]
        weights = base * np.exp(tilt * (np.array(versions) - 9) / 3.0)
        return versions[_choose(_choice_cdf(weights / weights.sum()), rng)]

    def bandwidth_factor(self, model: str, version: int) -> float:
        """Multiplicative bandwidth effect of (device, OS version)."""
        if version not in ANDROID_VERSION_FACTORS:
            raise ValueError(f"unsupported Android version {version}")
        return ANDROID_VERSION_FACTORS[version] * self.model_factor[model]

    def normalization(self) -> float:
        """Population-mean version factor, used to keep tech-level
        averages unchanged by the version effect."""
        return sum(
            ANDROID_VERSION_FACTORS[v] * s
            for v, s in ANDROID_VERSION_SHARES.items()
        )
