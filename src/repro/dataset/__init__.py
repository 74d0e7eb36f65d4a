"""Synthetic crowdsourced measurement dataset (substitutes §2-§3 data).

The paper analyses 23.6M bandwidth tests collected from 3.54M users of
a commercial app — data we cannot have.  This package replaces it with
a *generative* population model: every record is produced by composing
the radio (:mod:`repro.radio`), WiFi (:mod:`repro.wifi`), device, city,
and ISP models, under either the 2020 or the 2021 deployment state
(pre- vs post-refarming).  The analysis pipeline
(:mod:`repro.analysis`) then recomputes every figure of §3 from the
generated records — the figures' shapes emerge from the models, they
are not hard-coded.
"""

from repro.dataset.cities import CITY_TIERS, City, make_cities
from repro.dataset.devices import ANDROID_VERSION_FACTORS, DevicePopulation
from repro.dataset.generator import CampaignConfig, generate_campaign
from repro.dataset.isp import ISP, ISPS
from repro.dataset.ooc import (
    DatasetWriter,
    MappedDataset,
    NpdIntegrityError,
    open_mapped,
    write_npd,
)
from repro.dataset.records import Dataset

__all__ = [
    "ANDROID_VERSION_FACTORS",
    "CITY_TIERS",
    "CampaignConfig",
    "City",
    "Dataset",
    "DatasetWriter",
    "DevicePopulation",
    "ISP",
    "ISPS",
    "MappedDataset",
    "NpdIntegrityError",
    "generate_campaign",
    "make_cities",
    "open_mapped",
    "write_npd",
]
