"""Measurement-campaign generator.

Produces a :class:`~repro.dataset.records.Dataset` of synthetic
bandwidth tests for a given year (2020 = pre-refarming, 2021 =
post-refarming), by composing:

* ISP and band selection (:mod:`repro.dataset.isp`),
* LTE/NR cell models with per-band load profiles (:mod:`repro.radio`),
* the RSS/SNR model with dense-urban interference
  (:mod:`repro.radio.rss`),
* diurnal load and 5G base-station sleeping
  (:mod:`repro.radio.sleeping`),
* WiFi standards and fixed-broadband plans (:mod:`repro.wifi`),
* device (Android version) and city effects
  (:mod:`repro.dataset.devices`, :mod:`repro.dataset.cities`).

Per-band load profiles are the main calibration surface: they encode
how crowded each band's cells are, which — together with channel
widths set by the refarming plan — determines every per-band average
in Figures 5 and 8.

Execution model (the paper-scale dataset engine)
------------------------------------------------
Every random draw a row makes is a pure function of
``(config.seed, slot, test_id)`` through the counter-based substreams
of :mod:`repro.dataset.substreams` — no draw depends on any other
row.  :func:`generate_campaign` materialises ``chunk_size`` rows at a
time through batched NumPy kernels (:mod:`repro.dataset.kernels`),
keeping peak working memory bounded by the chunk, independent of
campaign size.  Because rows are independent, chunk size and chunk
order cannot change the output: ``chunk_size=1`` is the per-row
reference the batched chunks are asserted against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.dataset import substreams as ss
from repro.dataset.cities import (
    CITY_TIERS,
    URBAN_TEST_SHARE,
    make_cities,
    urban_factor,
)
from repro.dataset.devices import (
    ANDROID_VERSION_FACTORS,
    ANDROID_VERSION_SHARES,
    DevicePopulation,
    N_MODELS,
)
from repro.dataset.isp import (
    CELLULAR_ISP_SHARES,
    ISPS,
    WIFI_ISP_SHARES,
)
from repro.dataset.kernels import (
    home_path_allocation,
    lte_user_throughput,
    ltea_user_throughput,
    nr_user_throughput,
    wifi_link_mbps,
)
from repro.dataset.records import Dataset
from repro.radio.bands import lte_band, nr_band
from repro.radio.refarming import REFARMING_2021, RefarmingPlan
from repro.radio.rss import (
    RSS_LEVEL_RANGES_DBM,
    RssModel,
    dense_urban_probability,
)
from repro.radio.sleeping import DiurnalProfile, SleepPolicy
from repro.wifi.broadband import DEFAULT_PLAN_RATES, PLAN_MIX_BY_STANDARD
from repro.wifi.homepath import RSS_AIR_FACTOR
from repro.wifi.standards import wifi_standard

#: RSS level distribution for a typical cellular test.
RSS_LEVEL_PROBS: Dict[str, Tuple[float, ...]] = {
    "default": (0.06, 0.14, 0.26, 0.33, 0.21),
    # Band 39 serves sparse rural eNodeBs: weaker signal mix.
    "B39": (0.12, 0.22, 0.30, 0.24, 0.12),
    # Band 40 penetrates indoor spaces from dense eNodeBs: stronger mix.
    "B40": (0.03, 0.10, 0.24, 0.36, 0.27),
    # 5G coverage is concentrated where it was deployed first, so 5G
    # tests skew toward good signal conditions.
    "5G": (0.03, 0.10, 0.24, 0.36, 0.27),
}

#: Per-band LTE cell-load Beta(alpha, beta) parameters.  Heavier load
#: (mean closer to 1) means a smaller scheduler share per user.  2021
#: loads are heavier on the surviving workhorse bands because refarmed
#: spectrum pushed users onto them (§3.2).
LTE_LOAD_PROFILES: Dict[int, Dict[str, Tuple[float, float]]] = {
    2021: {
        "B3": (5.0, 0.8),
        "B40": (3.8, 1.0),
        "B41": (3.8, 1.05),
        "B1": (2.5, 1.5),
        "B39": (2.5, 1.5),
        "B8": (1.9, 1.5),
        "B5": (1.9, 1.5),
        "B34": (2.0, 1.5),
        "B28": (2.0, 2.0),
    },
    2020: {
        "B3": (3.4, 1.2),
        "B40": (3.0, 1.3),
        "B41": (2.6, 1.4),
        "B1": (1.9, 1.8),
        "B39": (2.3, 1.6),
        "B8": (1.8, 1.6),
        "B5": (1.8, 1.6),
        "B34": (1.9, 1.6),
        "B28": (2.0, 2.0),
    },
}

#: Per-band NR cell-load Beta parameters.  2020's 5G network carried
#: half the users (17% vs 33% of cellular subscribers), so loads were
#: lighter — one of the two reasons the 5G average fell year over year.
NR_LOAD_PROFILES: Dict[int, Dict[str, Tuple[float, float]]] = {
    2021: {
        "N78": (4.3, 3.1),
        "N41": (4.8, 3.2),
        "N1": (2.8, 4.5),
        "N28": (2.5, 4.8),
    },
    2020: {
        "N78": (3.7, 3.6),
        "N41": (4.0, 3.6),
        "N1": (2.8, 4.5),
        "N28": (2.5, 4.8),
    },
}

#: Probability that an urban H-Band test lands on an LTE-Advanced
#: eNodeB (deployed alongside main roads), calibrated so ~6.8% of all
#: LTE tests exceed 300 Mbps territory (§3.2).  Rural tests can also
#: land on LTE-A eNodeBs (highways) at a reduced rate.
LTE_ADVANCED_PROB_URBAN = 0.13
LTE_ADVANCED_RURAL_FACTOR = 0.75

#: LTE-Advanced main-road cells: good SINR, capacity provisioned for
#: load — SINR bonus, carrier-count mix, and load Beta parameters.
LTE_ADVANCED_SNR_BONUS_DB = 3.0
LTE_ADVANCED_CARRIER_PROBS = (0.65, 0.35)  # 2 vs 3 carriers
LTE_ADVANCED_LOAD_BETA = (3.2, 1.8)

#: NR radio parameters: beamforming gain shifts the usable SINR; the
#: TDD factor accounts for the downlink share of the frame; commercial
#: deployments typically sustain rank-2 spatial multiplexing.
NR_BEAMFORMING_GAIN_DB = 6.0
NR_TDD_FACTOR = 0.75
NR_STREAMS = 2

#: Dense-urban 5G penalties (§3.3): cross-region coverage and
#: co-channel interference degrade SINR and spatial rank, and heavy
#: population adds cell load.
DENSE_URBAN_INTERFERENCE_DB = 12.0
DENSE_URBAN_RANK_FACTOR = 0.7
DENSE_URBAN_EXTRA_LOAD = 0.12

#: Amplitude of the additive diurnal shift applied to cell load.  The
#: shift is centred on the day-average so the band profiles keep their
#: calibrated means *and* their heavy-load tails (a convex blend would
#: destroy the >0.93-load mass that produces the paper's 26.3% of LTE
#: tests below 10 Mbps).
DIURNAL_LOAD_AMPLITUDE = 0.15

#: Mild daytime bonus for 4G: unlike 5G, LTE bandwidth correlates
#: positively with test volume in the paper's data (§3.3), which we
#: attribute to daytime mobility toward well-provisioned outdoor cells.
LTE_DAYTIME_BONUS = 0.15

#: Technology shares of all tests, by year.  2021 values follow §3.1:
#: 21,051 / 1,632,616 / 905,471 / 21,077,214 tests for 3G/4G/5G/WiFi,
#: with WiFi 4/5/6 at 57.2% / 31.3% / 11.5% of WiFi tests.
TECH_SHARES: Dict[int, Dict[str, float]] = {
    2021: {
        "3G": 0.00089,
        "4G": 0.06907,
        "5G": 0.03831,
        "WiFi4": 0.51010,
        "WiFi5": 0.27913,
        "WiFi6": 0.10250,
    },
    2020: {
        "3G": 0.00320,
        "4G": 0.08650,
        "5G": 0.01840,
        "WiFi4": 0.55290,
        "WiFi5": 0.29430,
        "WiFi6": 0.04470,
    },
}

#: Operating-band split per WiFi standard (WiFi 5 is 5 GHz only).
WIFI_BAND_SPLIT: Dict[str, Dict[str, float]] = {
    "WiFi4": {"2.4GHz": 0.82, "5GHz": 0.18},
    "WiFi5": {"5GHz": 1.0},
    "WiFi6": {"2.4GHz": 0.10, "5GHz": 0.90},
}

#: WiFi channel width recorded per (standard, band), MHz.
WIFI_CHANNEL_MHZ: Dict[Tuple[str, str], float] = {
    ("WiFi4", "2.4GHz"): 20.0,
    ("WiFi4", "5GHz"): 40.0,
    ("WiFi5", "5GHz"): 80.0,
    ("WiFi6", "2.4GHz"): 40.0,
    ("WiFi6", "5GHz"): 80.0,
}

#: Log-normal sigma of the WiFi PHY-rate deployment spread.
WIFI_PHY_SIGMA = 0.45

#: WiFi RSS level mix (levels 1..5) of home-path campaigns.  Indoor
#: clients skew toward good signal: most tests run in the same or an
#: adjacent room to the AP (Sharma et al.), with a weak-signal tail.
WIFI_RSS_LEVEL_PROBS: Tuple[float, ...] = (0.08, 0.12, 0.20, 0.30, 0.30)

#: Probability that a home-path test contends with active LAN cross
#: traffic on the air hop (another device streaming/syncing mid-test).
XTRAFFIC_ACTIVE_PROB = 0.35

#: Aggregate LAN competitor demand, as a uniform fraction of the
#: effective air-link rate, when cross traffic is active.
XTRAFFIC_SHARE_RANGE: Tuple[float, float] = (0.35, 0.80)

#: Multiplicative log-normal sigma for fast fading / measurement
#: noise, per generation.  NR's wide channels and HARQ average out more
#: of the fast fading, so its spread is tighter.
FADING_SIGMA = {"4G": 0.25, "5G": 0.17}

#: Legacy 3G tests: a thin log-normal tail around a few Mbps, recorded
#: on Band 34.
THREEG_LOGNORMAL = (np.log(4.0), 0.8)
THREEG_BAND = "B34"
THREEG_SNR_DB = (10.0, 3.0)
THREEG_LOAD_BETA = (2.0, 2.0)

#: Average tests per user in the study (23.6M tests / 3.54M users).
TESTS_PER_USER = 6.67

#: Rows materialised per step of the chunked streaming driver; bounds
#: the working set (~30 slot/intermediate arrays of this length).
DEFAULT_CHUNK_SIZE = 65_536


@dataclass
class CampaignConfig:
    """Parameters of one synthetic measurement campaign.

    Attributes
    ----------
    year:
        2020 (pre-refarming) or 2021 (post-refarming); selects load
        profiles, tech shares, and whether the refarming plan applies.
    n_tests:
        Number of test records to generate.
    seed:
        Root RNG seed in ``[0, 2**64)``; a campaign is fully
        reproducible from it.
    refarming:
        Refarming plan in force; defaults to the 2021 plan for 2021
        campaigns and none for 2020.
    tech_shares:
        Optional override of the per-technology test shares — used for
        stratified campaigns that oversample one technology (e.g. a
        5G-heavy campaign for stable hour-of-day statistics).  Defaults
        to the year's historical shares.
    """

    year: int = 2021
    n_tests: int = 100_000
    seed: int = 20210801
    refarming: Optional[RefarmingPlan] = None
    sleep_policy: SleepPolicy = field(default_factory=SleepPolicy)
    diurnal: DiurnalProfile = field(default_factory=DiurnalProfile)
    rss_model: RssModel = field(default_factory=RssModel)
    tech_shares: Optional[Dict[str, float]] = None
    #: Override of the urban LTE-Advanced deployment probability; used
    #: by the §4 "widen LTE-Advanced" what-if analysis.  ``None`` keeps
    #: the calibrated default.
    lte_advanced_prob: Optional[float] = None
    #: Enable the home-path dual-bottleneck model for WiFi rows: the
    #: air link is attenuated by a drawn WiFi RSS level and shared
    #: with LAN cross traffic, and the ``air/wire/xtraffic/bottleneck``
    #: columns record the composed topology's ground truth.  Off by
    #: default — legacy campaigns stay byte-identical (the extra draws
    #: come from dedicated substream slots).
    home_path: bool = False

    def __post_init__(self) -> None:
        if self.year not in TECH_SHARES:
            raise ValueError(
                f"year must be one of {sorted(TECH_SHARES)}, got {self.year}"
            )
        if self.tech_shares is not None:
            unknown = set(self.tech_shares) - set(TECH_SHARES[self.year])
            if unknown:
                raise ValueError(f"unknown technologies: {sorted(unknown)}")
            if any(s < 0 for s in self.tech_shares.values()):
                raise ValueError("tech shares must be non-negative")
            if sum(self.tech_shares.values()) <= 0:
                raise ValueError("tech shares must have positive total")
        if self.lte_advanced_prob is not None and not (
            0.0 <= self.lte_advanced_prob <= 1.0
        ):
            raise ValueError(
                f"lte_advanced_prob must be in [0, 1], got {self.lte_advanced_prob}"
            )
        if self.n_tests <= 0:
            raise ValueError(f"n_tests must be positive, got {self.n_tests}")
        ss.check_seed(self.seed)
        if self.refarming is None and self.year >= 2021:
            self.refarming = REFARMING_2021


# -- campaign lookup tables --------------------------------------------


def _code_dtype(values) -> np.dtype:
    """The smallest unsigned integer type that codes ``values``."""
    return np.min_scalar_type(len(values) - 1)


class _Vocabulary:
    """One string column's values, indexed by the chunk kernel's codes.

    A chunk's column is spelled once, from its codes, after the kernel
    has returned: as the schema's ``object`` array for an in-memory
    dataset (:meth:`objects`) or as the fixed-width ``U`` array a
    ``.npd`` payload stores (:meth:`fixed_width`).  Either way no
    per-row ``str`` is converted.
    """

    def __init__(self, values):
        self._objects = np.array(values, dtype=object)
        self._fixed = np.array(values, dtype=np.str_)
        self._lengths = np.array([len(value) for value in values])
        self._by_width: Dict[int, np.ndarray] = {}

    def objects(self, codes: np.ndarray) -> np.ndarray:
        """The column as an ``object`` array of ``str``."""
        return self._objects[codes]

    def fixed_width(self, codes: np.ndarray) -> np.ndarray:
        """The column exactly as ``self.objects(codes).astype("U")``
        gives it: as wide as its longest value, gathered from the
        vocabulary narrowed to that width (which truncates only values
        the codes never name)."""
        width = max(int(self._lengths[codes].max(initial=0)), 1)
        table = self._by_width.get(width)
        if table is None:
            table = self._by_width[width] = self._fixed.astype(f"<U{width}")
        return table[codes]


class _CampaignTables:
    """Every config-dependent lookup the row kernels index into.

    Built once per campaign; holds no per-row state, so one instance
    serves every chunk, whatever its size.
    """

    _WIFI_TECHS = ("WiFi4", "WiFi5", "WiFi6")
    _CAT_3G, _CAT_4G, _CAT_5G, _CAT_WIFI = 0, 1, 2, 3

    def __init__(self, config: CampaignConfig):
        self.config = config
        year = config.year

        # Technology mix.
        shares = (
            config.tech_shares
            if config.tech_shares is not None
            else TECH_SHARES[year]
        )
        self.tech_names = sorted(shares)
        self.tech_cdf = ss.cdf_of([shares[t] for t in self.tech_names])
        cat = {"3G": self._CAT_3G, "4G": self._CAT_4G, "5G": self._CAT_5G}
        self.tech_category = np.array(
            [cat.get(t, self._CAT_WIFI) for t in self.tech_names], dtype=np.int64
        )
        self.wifi_row = np.array(
            [self._WIFI_TECHS.index(t) if t in self._WIFI_TECHS else -1
             for t in self.tech_names],
            dtype=np.int64,
        )

        # Hour-of-day mix and diurnal effect tables (24 entries each).
        diurnal = config.diurnal
        self.hour_cdf = ss.cdf_of(diurnal.hourly_volume)
        self.lte_daytime = np.array(
            [1.0 + LTE_DAYTIME_BONUS * diurnal.normalized_volume(h)
             for h in range(24)]
        )
        self.nr_load_shift = np.array(
            [DIURNAL_LOAD_AMPLITUDE * (diurnal.load_at(h) - diurnal.mean_load())
             for h in range(24)]
        )
        self.sleep_hour = np.array(
            [config.sleep_policy.is_sleeping(h) for h in range(24)], dtype=bool
        )
        self.sleep_factor = config.sleep_policy.capacity_factor

        # Cellular ISP shares; ids are 1..4 == index + 1.
        isp_ids = sorted(ISPS)
        assert isp_ids == [1, 2, 3, 4]
        self.isp_cdf_4g = ss.cdf_of(
            [CELLULAR_ISP_SHARES[(year, "4G")][i] for i in isp_ids]
        )
        self.isp_cdf_5g = ss.cdf_of(
            [CELLULAR_ISP_SHARES[(year, "5G")][i] for i in isp_ids]
        )
        self.nr_bonus = np.array(
            [ISPS[i].nr_coverage_bonus_db for i in isp_ids]
        )
        self.bb_uplift = np.array([ISPS[i].broadband_uplift for i in isp_ids])
        self.wifi_isp_cdf = ss.cdf_of([WIFI_ISP_SHARES[i] for i in isp_ids])

        # Per-ISP band pick tables (row-wise CDFs, padded with 1.0) and
        # global per-band attribute arrays.
        self.lte_band_names, self.lte_band_cdf, self.lte_band_gidx = (
            self._band_tables({i: ISPS[i].lte_band_weights for i in isp_ids})
        )
        self.nr_band_names, self.nr_band_cdf, self.nr_band_gidx = (
            self._band_tables({i: ISPS[i].nr_band_weights for i in isp_ids})
        )
        refarming = config.refarming
        self.lte_channel = np.array(
            [refarming.lte_channel_mhz(n) if refarming
             else lte_band(n).max_channel_mhz
             for n in self.lte_band_names]
        )
        self.nr_channel = np.array(
            [refarming.nr_channel_mhz(n) if refarming
             else nr_band(n).max_channel_mhz
             for n in self.nr_band_names]
        )
        self.lte_load_a = np.array(
            [LTE_LOAD_PROFILES[year][n][0] for n in self.lte_band_names]
        )
        self.lte_load_b = np.array(
            [LTE_LOAD_PROFILES[year][n][1] for n in self.lte_band_names]
        )
        self.nr_load_a = np.array(
            [NR_LOAD_PROFILES[year][n][0] for n in self.nr_band_names]
        )
        self.nr_load_b = np.array(
            [NR_LOAD_PROFILES[year][n][1] for n in self.nr_band_names]
        )
        # LTE-Advanced eNodeBs are deployed alongside main roads —
        # mostly urban, with highway coverage reaching rural tests at a
        # reduced rate; the rural-coverage Band 39 never hosts them and
        # the 5G-first ISP-4 (Band 28) never invested in LTE-A.
        self.lte_ltea_ok = np.array(
            [lte_band(n).is_h_band and n not in ("B39", "B28")
             for n in self.lte_band_names],
            dtype=bool,
        )

        # RSS level mixes: rows default / B39 / B40 / 5G.
        rss_rows = ["default", "B39", "B40", "5G"]
        width = max(len(RSS_LEVEL_PROBS[k]) for k in rss_rows)
        self.rss_cdf = np.ones((len(rss_rows), width))
        for r, key in enumerate(rss_rows):
            self.rss_cdf[r] = ss.cdf_of(RSS_LEVEL_PROBS[key])
        self.lte_rss_row = np.array(
            [rss_rows.index(n) if n in rss_rows else 0
             for n in self.lte_band_names],
            dtype=np.int64,
        )
        self.rss_row_5g = rss_rows.index("5G")

        # Signal-quality tables indexed by RSS level (index 0 unused).
        self.rsrp_low = np.zeros(6)
        self.rsrp_high = np.zeros(6)
        for level, (low, high) in RSS_LEVEL_RANGES_DBM.items():
            self.rsrp_low[level] = low
            self.rsrp_high[level] = high
        self.snr_mean = np.zeros(6)
        for level, mean in config.rss_model.snr_mean_by_level.items():
            self.snr_mean[level] = mean
        self.snr_sigma = config.rss_model.snr_sigma_db
        self.dense_prob = np.zeros(6)
        for level in range(1, 6):
            self.dense_prob[level] = dense_urban_probability(level)
        self.dense_rank = max(1, int(round(NR_STREAMS * DENSE_URBAN_RANK_FACTOR)))

        # Urban/rural deployment-density factors, indexed by int(urban).
        self.urban_factor_4g = np.array(
            [urban_factor("4G", False), urban_factor("4G", True)]
        )
        self.urban_factor_5g = np.array(
            [urban_factor("5G", False), urban_factor("5G", True)]
        )

        self.ltea_carrier_cdf = ss.cdf_of(LTE_ADVANCED_CARRIER_PROBS)
        self.ltea_prob_urban = (
            config.lte_advanced_prob
            if config.lte_advanced_prob is not None
            else LTE_ADVANCED_PROB_URBAN
        )

        # The band column's vocabulary: every band a row can record.
        band_names = sorted(
            set(self.lte_band_names) | set(self.nr_band_names)
            | {THREEG_BAND}
            | {band for split in WIFI_BAND_SPLIT.values() for band in split}
        )
        band_code = {name: code for code, name in enumerate(band_names)}
        self.lte_band_code = np.array(
            [band_code[n] for n in self.lte_band_names]
        )
        self.nr_band_code = np.array([band_code[n] for n in self.nr_band_names])
        self.threeg_band_code = band_code[THREEG_BAND]

        # WiFi tables, rows ordered WiFi4 / WiFi5 / WiFi6; band columns
        # follow each standard's own sorted band list.
        n_wifi = len(self._WIFI_TECHS)
        self.wifi_band_cdf = np.ones((n_wifi, 2))
        self.wifi_band_code = np.zeros((n_wifi, 2), dtype=np.int64)
        self.wifi_channel = np.zeros((n_wifi, 2))
        self.wifi_typ = np.ones((n_wifi, 2))
        self.wifi_peak = np.ones((n_wifi, 2))
        self.wifi_mu = np.zeros((n_wifi, 2))
        self.wifi_sig = np.ones((n_wifi, 2))
        self.wifi_plan_cdf = np.ones((n_wifi, len(DEFAULT_PLAN_RATES)))
        self.wifi_delivery_mean = np.zeros(n_wifi)
        self.wifi_delivery_sigma = np.zeros(n_wifi)
        for r, tech in enumerate(self._WIFI_TECHS):
            split = WIFI_BAND_SPLIT[tech]
            bands = sorted(split)
            self.wifi_band_cdf[r, : len(bands)] = ss.cdf_of(
                [split[b] for b in bands]
            )
            standard = wifi_standard(tech)
            for c, band in enumerate(bands):
                profile = standard.bands[band]
                self.wifi_band_code[r, c] = band_code[band]
                self.wifi_channel[r, c] = WIFI_CHANNEL_MHZ[(tech, band)]
                self.wifi_typ[r, c] = profile.typical_phy_mbps
                self.wifi_peak[r, c] = profile.peak_phy_mbps
                self.wifi_mu[r, c] = profile.contention_mu
                self.wifi_sig[r, c] = profile.contention_sigma
            if len(bands) == 1:  # pad so stray indices stay in-domain
                self.wifi_band_code[r, 1] = self.wifi_band_code[r, 0]
                self.wifi_channel[r, 1] = self.wifi_channel[r, 0]
                self.wifi_typ[r, 1] = self.wifi_typ[r, 0]
                self.wifi_peak[r, 1] = self.wifi_peak[r, 0]
                self.wifi_mu[r, 1] = self.wifi_mu[r, 0]
                self.wifi_sig[r, 1] = self.wifi_sig[r, 0]
            mix = PLAN_MIX_BY_STANDARD[tech]
            rates = sorted(mix.weights)
            if tuple(rates) != tuple(DEFAULT_PLAN_RATES):
                raise ValueError(
                    f"{tech} plan mix must cover the default tier ladder"
                )
            self.wifi_plan_cdf[r] = ss.cdf_of([mix.weights[x] for x in rates])
            self.wifi_delivery_mean[r] = mix.delivery_mean
            self.wifi_delivery_sigma[r] = mix.delivery_sigma
        self.plan_rates = np.array(DEFAULT_PLAN_RATES, dtype=np.int32)
        self.wifi_rss_cdf = ss.cdf_of(WIFI_RSS_LEVEL_PROBS)
        self.wifi_rss_factor = np.array(
            [RSS_AIR_FACTOR[level] for level in range(6)]
        )

        # User population: devices and home cities, one vectorized pass
        # over user-indexed substreams (position = user_id).
        seed = config.seed
        cities = make_cities(np.random.default_rng(seed + 1))
        devices = DevicePopulation(rng_seed=seed + 2)
        version_norm = devices.normalization()

        self.n_users = max(1, int(config.n_tests / TESTS_PER_USER))
        n_users = self.n_users

        vendor_code = {name: code for code, name in enumerate(devices.vendors)}
        model_vendor = np.array(
            [vendor_code[devices.model_vendor[m]] for m in devices.models],
            dtype=_code_dtype(devices.vendors),
        )
        tier_names = ["low", "mid", "high"]
        model_tier = np.array(
            [tier_names.index(devices.model_tier[m]) for m in devices.models],
            dtype=np.int64,
        )
        model_factor = np.array(
            [devices.model_factor[m] for m in devices.models]
        )

        versions = sorted(ANDROID_VERSION_SHARES)
        base = np.array([ANDROID_VERSION_SHARES[v] for v in versions])
        version_cdf = np.empty((len(tier_names), len(versions)))
        for r, tier in enumerate(tier_names):
            tilt = {"low": -1.0, "mid": 0.0, "high": 1.5}[tier]
            weights = base * np.exp(tilt * (np.array(versions) - 9) / 3.0)
            version_cdf[r] = ss.cdf_of(weights)
        version_values = np.array(versions, dtype=np.int64)
        version_factor = np.array(
            [ANDROID_VERSION_FACTORS[v] for v in versions]
        )

        u_model = ss.uniform_block(seed, ss.SLOT_USER_MODEL, 0, n_users)
        model_idx = ss.index_from_uniform(u_model, N_MODELS)
        tier_idx = model_tier[model_idx]
        u_version = ss.uniform_block(seed, ss.SLOT_USER_VERSION, 0, n_users)
        version_idx = ss.pick_rows(version_cdf, tier_idx, u_version)

        self.user_vendor = model_vendor[model_idx]
        self.user_model = model_idx.astype(_code_dtype(devices.models))
        self.user_version = version_values[version_idx].astype(np.int8)
        self.user_device_factor = (
            version_factor[version_idx] * model_factor[model_idx]
        ) / version_norm

        # Home city: tier pick (volume-weighted) then uniform member.
        tier_cdf = ss.cdf_of([share for _, _, share in CITY_TIERS])
        tier_counts = np.array([count for _, count, _ in CITY_TIERS])
        tier_offsets = np.concatenate([[0], np.cumsum(tier_counts)[:-1]])
        u_tier = ss.uniform_block(seed, ss.SLOT_USER_CITY_TIER, 0, n_users)
        city_tier_idx = ss.pick(tier_cdf, u_tier)
        u_member = ss.uniform_block(seed, ss.SLOT_USER_CITY_MEMBER, 0, n_users)
        member = np.minimum(
            (u_member * tier_counts[city_tier_idx]).astype(np.int64),
            tier_counts[city_tier_idx] - 1,
        )
        city_idx = tier_offsets[city_tier_idx] + member

        city_tiers = [tier for tier, _, _ in CITY_TIERS]
        city_tier = np.array(
            [city_tiers.index(c.tier) for c in cities],
            dtype=_code_dtype(city_tiers),
        )
        city_cellular = np.array([c.cellular_factor for c in cities])
        city_wifi = np.array([c.wifi_quality for c in cities])
        self.user_city_id = city_idx.astype(np.int32)
        self.user_city_tier = city_tier[city_idx]
        self.user_cellular_factor = city_cellular[city_idx]
        self.user_wifi_quality = city_wifi[city_idx]

        # The string columns' vocabularies; the chunk kernel returns
        # each of those columns as codes into its vocabulary.
        self.vocabularies = {
            "tech": _Vocabulary(self.tech_names),
            "city_tier": _Vocabulary(city_tiers),
            "band": _Vocabulary(band_names),
            "vendor": _Vocabulary(devices.vendors),
            "device_model": _Vocabulary(devices.models),
        }

    @staticmethod
    def _band_tables(weights_by_isp: Dict[int, Dict[str, float]]):
        """Per-ISP band CDF rows plus a local→global band index map."""
        names = sorted({n for w in weights_by_isp.values() for n in w})
        isp_ids = sorted(weights_by_isp)
        width = max(len(w) for w in weights_by_isp.values())
        cdf = np.ones((len(isp_ids), width))
        gidx = np.zeros((len(isp_ids), width), dtype=np.int64)
        for r, isp_id in enumerate(isp_ids):
            weights = weights_by_isp[isp_id]
            local = sorted(weights)  # == ISP.sample_band's candidate order
            cdf[r, : len(local)] = ss.cdf_of([weights[n] for n in local])
            for c, name in enumerate(local):
                gidx[r, c] = names.index(name)
            if local:  # pad stray indices into the last real band
                gidx[r, len(local):] = gidx[r, len(local) - 1]
        return names, cdf, gidx


# -- chunk kernel ------------------------------------------------------


def _generate_chunk(
    tables: _CampaignTables, start: int, stop: int
) -> Dict[str, np.ndarray]:
    """Rows ``[start, stop)`` of the campaign as schema-typed arrays,
    except that each string column holds integer codes into its
    ``tables.vocabularies`` entry.

    Pure function of ``(tables.config, start, stop)``; every random
    input is read from the ``(seed, slot, test_id)`` substreams, so
    concatenating chunk outputs yields the same dataset for any chunk
    partition — the invariance the engine's tests assert.
    """
    config = tables.config
    seed = config.seed
    m = stop - start

    def draw(slot: int) -> np.ndarray:
        return ss.uniform_block(seed, slot, start, m)

    tech_idx = ss.pick(tables.tech_cdf, draw(ss.SLOT_TECH))
    category = tables.tech_category[tech_idx]
    user_id = ss.index_from_uniform(draw(ss.SLOT_USER), tables.n_users)
    hour = ss.pick(tables.hour_cdf, draw(ss.SLOT_HOUR))
    urban = draw(ss.SLOT_URBAN) < URBAN_TEST_SHARE
    device_factor = tables.user_device_factor[user_id]
    cellular_factor = tables.user_cellular_factor[user_id]

    u_isp = draw(ss.SLOT_ISP)
    u_band = draw(ss.SLOT_BAND)
    u_rss = draw(ss.SLOT_RSS_LEVEL)
    u_rsrp = draw(ss.SLOT_RSRP)
    u_fade = draw(ss.SLOT_FADE)
    u_snr = draw(ss.SLOT_SNR)
    u_load = draw(ss.SLOT_LOAD)
    u_ltea = draw(ss.SLOT_LTEA_GATE)
    u_carriers = draw(ss.SLOT_LTEA_CARRIERS)
    u_ltea_load = draw(ss.SLOT_LTEA_LOAD)
    u_dense = draw(ss.SLOT_DENSE)
    u_wifi_band = draw(ss.SLOT_WIFI_BAND)
    u_plan = draw(ss.SLOT_PLAN)
    u_shift = draw(ss.SLOT_PLAN_SHIFT)
    u_phy = draw(ss.SLOT_LINK_PHY)
    u_cont = draw(ss.SLOT_LINK_CONTENTION)
    u_wire = draw(ss.SLOT_WIRE)

    # Column scaffolding (cellular defaults; branches scatter into it).
    isp_col = np.ones(m, dtype=np.int8)
    band_col = np.empty(m, dtype=np.int64)
    channel_col = np.zeros(m)
    rss_col = np.zeros(m, dtype=np.int8)
    rsrp_col = np.full(m, np.nan)
    snr_col = np.full(m, np.nan)
    plan_col = np.zeros(m, dtype=np.int32)
    load_col = np.zeros(m)
    ltea_col = np.zeros(m, dtype=bool)
    sleep_col = np.zeros(m, dtype=bool)
    dense_col = np.zeros(m, dtype=bool)
    bw_col = np.empty(m)
    air_col = np.zeros(m)
    wire_col = np.zeros(m)
    xtraffic_col = np.zeros(m)
    bott_col = np.zeros(m, dtype=np.int8)

    # -- 4G ------------------------------------------------------------
    i4 = np.flatnonzero(category == tables._CAT_4G)
    if i4.size:
        isp_idx = ss.pick(tables.isp_cdf_4g, u_isp[i4])
        band_local = ss.pick_rows(tables.lte_band_cdf, isp_idx, u_band[i4])
        gidx = tables.lte_band_gidx[isp_idx, band_local]
        level = 1 + ss.pick_rows(
            tables.rss_cdf, tables.lte_rss_row[gidx], u_rss[i4]
        )
        rsrp = ss.ppf_uniform(
            u_rsrp[i4], tables.rsrp_low[level], tables.rsrp_high[level]
        )
        fade = ss.ppf_lognormal(u_fade[i4], 0.0, FADING_SIGMA["4G"])
        snr = ss.ppf_normal(u_snr[i4], tables.snr_mean[level], tables.snr_sigma)
        # Mature LTE deployments are provisioned for their daytime
        # demand, so the load draw carries no diurnal shift; the
        # daytime mobility bonus below produces the mild positive
        # volume-bandwidth correlation of §3.3.
        load = np.clip(
            ss.ppf_beta(u_load[i4], tables.lte_load_a[gidx],
                        tables.lte_load_b[gidx]),
            0.02, 0.99,
        )
        urban4 = urban[i4]
        prob = tables.ltea_prob_urban * np.where(
            urban4, 1.0, LTE_ADVANCED_RURAL_FACTOR
        )
        ltea = tables.lte_ltea_ok[gidx] & (u_ltea[i4] < prob)
        carriers = np.where(
            ss.pick(tables.ltea_carrier_cdf, u_carriers[i4]) == 0, 2, 3
        )
        # An LTE-A row's cell is provisioned for its load: it keeps the
        # LTE-A draw instead, evaluated on those rows only (about one
        # 4G row in ten).
        ia = np.flatnonzero(ltea)
        load[ia] = ss.ppf_beta(u_ltea_load[i4[ia]], *LTE_ADVANCED_LOAD_BETA)
        bandwidth = np.where(
            ltea,
            ltea_user_throughput(
                carriers, snr + LTE_ADVANCED_SNR_BONUS_DB, load
            ),
            lte_user_throughput(tables.lte_channel[gidx], snr, load),
        )
        bandwidth = bandwidth * tables.lte_daytime[hour[i4]]
        bandwidth = bandwidth * (
            fade
            * device_factor[i4]
            * cellular_factor[i4]
            * tables.urban_factor_4g[urban4.astype(np.int64)]
        )
        isp_col[i4] = (isp_idx + 1).astype(np.int8)
        band_col[i4] = tables.lte_band_code[gidx]
        channel_col[i4] = tables.lte_channel[gidx]
        rss_col[i4] = level.astype(np.int8)
        rsrp_col[i4] = rsrp
        snr_col[i4] = snr
        load_col[i4] = load
        ltea_col[i4] = ltea
        bw_col[i4] = np.maximum(0.1, bandwidth)

    # -- 5G ------------------------------------------------------------
    i5 = np.flatnonzero(category == tables._CAT_5G)
    if i5.size:
        isp_idx = ss.pick(tables.isp_cdf_5g, u_isp[i5])
        band_local = ss.pick_rows(tables.nr_band_cdf, isp_idx, u_band[i5])
        gidx = tables.nr_band_gidx[isp_idx, band_local]
        level = 1 + ss.pick_rows(
            tables.rss_cdf,
            np.full(len(i5), tables.rss_row_5g, dtype=np.int64),
            u_rss[i5],
        )
        rsrp = ss.ppf_uniform(
            u_rsrp[i5], tables.rsrp_low[level], tables.rsrp_high[level]
        )
        fade = ss.ppf_lognormal(u_fade[i5], 0.0, FADING_SIGMA["5G"])
        urban5 = urban[i5]
        dense = urban5 & (u_dense[i5] < tables.dense_prob[level])
        snr = (
            ss.ppf_normal(u_snr[i5], tables.snr_mean[level], tables.snr_sigma)
            + NR_BEAMFORMING_GAIN_DB
            + tables.nr_bonus[isp_idx]
        )
        snr = np.where(dense, snr - DENSE_URBAN_INTERFERENCE_DB, snr)
        rank = np.where(dense, tables.dense_rank, NR_STREAMS)
        extra = np.where(dense, DENSE_URBAN_EXTRA_LOAD, 0.0)
        load = np.clip(
            ss.ppf_beta(u_load[i5], tables.nr_load_a[gidx],
                        tables.nr_load_b[gidx])
            + tables.nr_load_shift[hour[i5]]
            + extra,
            0.02, 0.99,
        )
        bandwidth = (
            nr_user_throughput(tables.nr_channel[gidx], snr, load, rank)
            * NR_TDD_FACTOR
        )
        sleeping = tables.sleep_hour[hour[i5]]
        bandwidth = np.where(
            sleeping, bandwidth * tables.sleep_factor, bandwidth
        )
        bandwidth = bandwidth * (
            fade
            * device_factor[i5]
            * cellular_factor[i5]
            * tables.urban_factor_5g[urban5.astype(np.int64)]
        )
        isp_col[i5] = (isp_idx + 1).astype(np.int8)
        band_col[i5] = tables.nr_band_code[gidx]
        channel_col[i5] = tables.nr_channel[gidx]
        rss_col[i5] = level.astype(np.int8)
        rsrp_col[i5] = rsrp
        snr_col[i5] = snr
        load_col[i5] = load
        dense_col[i5] = dense
        sleep_col[i5] = sleeping
        bw_col[i5] = np.maximum(0.1, bandwidth)

    # -- 3G ------------------------------------------------------------
    i3 = np.flatnonzero(category == tables._CAT_3G)
    if i3.size:
        isp_idx = ss.pick(tables.isp_cdf_4g, u_isp[i3])
        level = 1 + ss.pick_rows(
            tables.rss_cdf, np.zeros(len(i3), dtype=np.int64), u_rss[i3]
        )
        bandwidth = (
            ss.ppf_lognormal(u_fade[i3], *THREEG_LOGNORMAL)
            * device_factor[i3]
        )
        isp_col[i3] = (isp_idx + 1).astype(np.int8)
        band_col[i3] = tables.threeg_band_code
        channel_col[i3] = 5.0
        rss_col[i3] = level.astype(np.int8)
        rsrp_col[i3] = ss.ppf_uniform(
            u_rsrp[i3], tables.rsrp_low[3], tables.rsrp_high[3]
        )
        snr_col[i3] = ss.ppf_normal(u_snr[i3], *THREEG_SNR_DB)
        load_col[i3] = ss.ppf_beta(u_load[i3], *THREEG_LOAD_BETA)
        bw_col[i3] = np.maximum(0.1, bandwidth)

    # -- WiFi ----------------------------------------------------------
    iw = np.flatnonzero(category == tables._CAT_WIFI)
    if iw.size:
        wrow = tables.wifi_row[tech_idx[iw]]
        isp_idx = ss.pick(tables.wifi_isp_cdf, u_isp[iw])
        band_local = ss.pick_rows(tables.wifi_band_cdf, wrow, u_wifi_band[iw])
        plan_idx = ss.pick_rows(tables.wifi_plan_cdf, wrow, u_plan[iw])
        # Better wired infrastructure (ISP investment, bigger city)
        # shows up as a higher purchased tier, preserving the plan-tier
        # mode structure of Figure 16 rather than smearing it.
        quality = tables.bb_uplift[isp_idx] * tables.user_wifi_quality[user_id[iw]]
        shift_up = (quality > 1.0) & (
            u_shift[iw] < np.clip(quality - 1.0, 0.0, 0.6)
        )
        shift_down = (quality < 1.0) & (
            u_shift[iw] < np.clip(1.0 - quality, 0.0, 0.6)
        )
        plan_idx = np.clip(
            plan_idx + shift_up.astype(np.int64) - shift_down.astype(np.int64),
            0, len(DEFAULT_PLAN_RATES) - 1,
        )
        plan = tables.plan_rates[plan_idx]
        link = wifi_link_mbps(
            ss.ppf_normal(u_phy[iw], 0.0, 1.0),
            ss.ppf_normal(u_cont[iw], 0.0, 1.0),
            tables.wifi_typ[wrow, band_local],
            tables.wifi_peak[wrow, band_local],
            tables.wifi_mu[wrow, band_local],
            tables.wifi_sig[wrow, band_local],
            phy_sigma=WIFI_PHY_SIGMA,
        )
        wire = np.maximum(
            1.0,
            plan * ss.ppf_normal(
                u_wire[iw],
                tables.wifi_delivery_mean[wrow],
                tables.wifi_delivery_sigma[wrow],
            ),
        )
        if config.home_path:
            # Home-path model: RSS attenuates the air link, and LAN
            # cross traffic contends on it.  All three draws live in
            # dedicated slots, so rows keep their legacy bandwidth
            # stream and flipping the flag cannot reshuffle anything
            # else.
            hp_level = 1 + ss.pick(
                tables.wifi_rss_cdf, draw(ss.SLOT_WIFI_RSS)[iw]
            )
            air = np.maximum(1.0, link * tables.wifi_rss_factor[hp_level])
            active = draw(ss.SLOT_XTRAFFIC_GATE)[iw] < XTRAFFIC_ACTIVE_PROB
            share = ss.ppf_uniform(
                draw(ss.SLOT_XTRAFFIC_SHARE)[iw], *XTRAFFIC_SHARE_RANGE
            )
            xdemand = np.where(active, air * share, 0.0)
            rss_col[iw] = hp_level.astype(np.int8)
        else:
            air = link
            xdemand = np.zeros(len(iw))
        allocated, hop = home_path_allocation(air, wire, xdemand)
        bandwidth = allocated * device_factor[iw]
        isp_col[iw] = (isp_idx + 1).astype(np.int8)
        band_col[iw] = tables.wifi_band_code[wrow, band_local]
        channel_col[iw] = tables.wifi_channel[wrow, band_local]
        plan_col[iw] = plan
        air_col[iw] = air
        wire_col[iw] = wire
        xtraffic_col[iw] = xdemand
        bott_col[iw] = hop
        bw_col[iw] = np.maximum(0.5, bandwidth)

    return {
        "test_id": np.arange(start, stop, dtype=np.int64),
        "user_id": user_id.astype(np.int64),
        "year": np.full(m, config.year, dtype=np.int16),
        "hour": hour.astype(np.int8),
        "tech": tech_idx,
        "isp": isp_col,
        "city_id": tables.user_city_id[user_id],
        "city_tier": tables.user_city_tier[user_id],
        "urban": urban,
        "dense_urban": dense_col,
        "band": band_col,
        "channel_mhz": channel_col,
        "rss_level": rss_col,
        "rsrp_dbm": rsrp_col,
        "snr_db": snr_col,
        "android_version": tables.user_version[user_id],
        "vendor": tables.user_vendor[user_id],
        "device_model": tables.user_model[user_id],
        "plan_mbps": plan_col,
        "cell_load": load_col,
        "lte_advanced": ltea_col,
        "sleeping": sleep_col,
        "bandwidth_mbps": bw_col,
        "air_mbps": air_col,
        "wire_mbps": wire_col,
        "xtraffic_mbps": xtraffic_col,
        "bottleneck": bott_col,
        "bottleneck_attr": np.zeros(m, dtype=np.int8),
    }


# -- drivers -----------------------------------------------------------


def _spelled_chunks(
    config: CampaignConfig, chunk_size: int, spell
) -> Iterator[Dict[str, np.ndarray]]:
    """The campaign's chunks, each string column spelled from its codes
    by ``spell(vocabulary, codes)``.

    A column is spelled only once the kernel has returned and freed its
    temporaries, and a chunk is dropped before the next one is
    generated, so a consumer that drops it too holds one chunk at a
    time.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    tables = _CampaignTables(config)
    for start in range(0, config.n_tests, chunk_size):
        chunk = _generate_chunk(
            tables, start, min(start + chunk_size, config.n_tests)
        )
        for name, vocabulary in tables.vocabularies.items():
            chunk[name] = spell(vocabulary, chunk[name])
        yield chunk
        del chunk


def iter_campaign_chunks(
    config: CampaignConfig, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Dict[str, np.ndarray]]:
    """Stream a campaign as column chunks in the dtypes a ``.npd``
    payload stores.

    The building block for bounded-memory pipelines (columnar writers,
    the run store's ``ingest_chunks``): each yielded dict covers the
    next ``chunk_size`` test ids and is independent of every other
    chunk.  Numeric columns have the schema's dtypes.  Each string
    column is a fixed-width ``U`` array as wide as the chunk's longest
    value: exactly what ``.astype("U")`` of :func:`generate_campaign`'s
    ``object`` column gives for the same rows, and the dtype
    :meth:`MappedDataset.iter_chunks
    <repro.dataset.ooc.MappedDataset.iter_chunks>` yields, so a
    :class:`~repro.dataset.ooc.DatasetWriter` stores it without a cast.
    A ``U`` chunk is larger than an ``object`` one; drop each chunk
    before taking the next, and peak memory stays at one chunk.
    """
    return _spelled_chunks(config, chunk_size, _Vocabulary.fixed_width)


def generate_campaign(
    config: CampaignConfig, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Dataset:
    """Run a campaign and return its dataset.

    Deterministic given ``config``: two calls with the same config
    yield identical datasets, and — because every draw is a pure
    function of ``(config.seed, slot, test_id)`` — the result is
    byte-identical for any ``chunk_size``.  Its string columns are the
    schema's ``object`` arrays of ``str``, gathered from the same
    codes as :func:`iter_campaign_chunks`'s ``U`` columns.

    Parameters
    ----------
    chunk_size:
        Rows materialised per chunk; bounds peak working memory
        without affecting the output.  ``1`` generates
        row by row — the slow per-row reference, for verification.
    """
    return Dataset.from_chunks(
        list(_spelled_chunks(config, chunk_size, _Vocabulary.objects))
    )
