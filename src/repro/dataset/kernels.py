"""Vectorized radio/WiFi math for the dataset engine.

Array re-implementations of the scalar cell models
(:mod:`repro.radio.lte`, :mod:`repro.radio.nr`,
:mod:`repro.radio.shannon`) and the WiFi link model
(:mod:`repro.wifi.standards`), used by every chunk of
:mod:`repro.dataset.generator` — elementwise, so a one-row chunk and a
wide one compute byte-identical rows.

The scalar classes remain the readable reference; unit tests pin each
kernel against them elementwise.
"""

from __future__ import annotations

import numpy as np

from repro.radio.lte import LTE_PEAK_MBPS, MIN_USER_SHARE
from repro.radio.nr import NR_PEAK_MBPS_PER_100MHZ
from repro.radio.shannon import (
    IMPLEMENTATION_FACTOR,
    MAX_SE_QAM64,
    MAX_SE_QAM256,
)
from repro.wifi.standards import MAC_EFFICIENCY

#: Per-carrier LTE-Advanced delivered ceiling (20 MHz, 4x4, 256-QAM).
LTEA_CEILING_PER_CARRIER_MBPS = 350.0


def spectral_efficiency_arr(
    snr_db: np.ndarray,
    max_se: float,
    implementation_factor: float = IMPLEMENTATION_FACTOR,
) -> np.ndarray:
    """Vector :func:`repro.radio.shannon.spectral_efficiency`."""
    linear = np.power(10.0, np.asarray(snr_db, dtype=np.float64) / 10.0)
    shannon = np.log2(1.0 + linear)
    return np.minimum(implementation_factor * shannon, max_se)


def user_share_arr(cell_load: np.ndarray) -> np.ndarray:
    """Vector :func:`repro.radio.lte.user_share`."""
    return np.maximum(MIN_USER_SHARE, 1.0 - np.asarray(cell_load))


def lte_user_throughput(
    channel_mhz: np.ndarray,
    snr_db: np.ndarray,
    cell_load: np.ndarray,
    streams: int = 2,
) -> np.ndarray:
    """Vector :meth:`repro.radio.lte.LteCell.user_throughput_mbps`."""
    se = spectral_efficiency_arr(snr_db, MAX_SE_QAM64)
    capacity = np.asarray(channel_mhz) * se * streams
    ceiling = LTE_PEAK_MBPS * np.asarray(channel_mhz) / 20.0 * streams / 2
    return np.minimum(capacity, ceiling) * user_share_arr(cell_load)


def ltea_user_throughput(
    carriers: np.ndarray,
    snr_db: np.ndarray,
    cell_load: np.ndarray,
    carrier_mhz: float = 20.0,
    streams: int = 4,
) -> np.ndarray:
    """Vector :meth:`repro.radio.lte.LteAdvancedCell.user_throughput_mbps`."""
    per_carrier = carrier_mhz * spectral_efficiency_arr(snr_db, MAX_SE_QAM256) * streams
    ceiling = LTEA_CEILING_PER_CARRIER_MBPS * carrier_mhz / 20.0 * streams / 4
    peak = np.asarray(carriers) * np.minimum(per_carrier, ceiling)
    return peak * user_share_arr(cell_load)


def nr_user_throughput(
    channel_mhz: np.ndarray,
    snr_db: np.ndarray,
    cell_load: np.ndarray,
    streams: np.ndarray,
) -> np.ndarray:
    """Vector :meth:`repro.radio.nr.NrCell.user_throughput_mbps`.

    ``streams`` is per-row (dense-urban tests lose spatial rank).
    """
    se = spectral_efficiency_arr(snr_db, MAX_SE_QAM256)
    capacity = np.asarray(channel_mhz) * se * np.asarray(streams)
    ceiling = NR_PEAK_MBPS_PER_100MHZ * np.asarray(channel_mhz) / 100.0
    return np.minimum(capacity, ceiling) * user_share_arr(cell_load)


def wifi_link_mbps(
    phy_normal: np.ndarray,
    contention_normal: np.ndarray,
    typical_phy_mbps: np.ndarray,
    peak_phy_mbps: np.ndarray,
    contention_mu: np.ndarray,
    contention_sigma: np.ndarray,
    phy_sigma: float = 0.45,
) -> np.ndarray:
    """Vector :meth:`repro.wifi.standards.BandProfile.sample_link_mbps`.

    ``phy_normal`` / ``contention_normal`` are standard-normal draws
    (already transformed from slot uniforms) so the kernel itself stays
    distribution-free.
    """
    phy = np.exp(np.log(np.asarray(typical_phy_mbps)) + phy_sigma * phy_normal)
    phy = np.minimum(phy, peak_phy_mbps)
    contention = np.minimum(
        1.0, np.exp(np.asarray(contention_mu)
                    + np.asarray(contention_sigma) * contention_normal)
    )
    return np.maximum(1.0, phy * MAC_EFFICIENCY * contention)


def home_path_allocation(
    air_mbps: np.ndarray,
    wire_mbps: np.ndarray,
    xtraffic_mbps: np.ndarray,
):
    """Vector max-min allocation of the two-hop home path.

    Closed form of :class:`repro.wifi.homepath.HomePath` with one
    aggregate competitor of demand ``xtraffic_mbps`` on the air hop:
    progressive filling gives the competitor ``min(x, air/2)``, so the
    test flow's air-side share is ``max(air - x, air/2)``, further
    capped by the wire hop.  Returns ``(allocated_mbps, bottleneck)``
    where ``bottleneck`` holds the ground-truth binding-hop codes of
    :mod:`repro.wifi.homepath` (int8).

    With ``xtraffic == 0`` the allocation is exactly
    ``min(air, wire)`` in float math — the legacy single-draw WiFi
    bandwidth — so enabling the home-path model cannot perturb
    undisturbed rows.
    """
    from repro.wifi.homepath import (
        BOTTLENECK_AIR,
        BOTTLENECK_CONTENTION,
        BOTTLENECK_PLAN,
        _EPS,
    )

    air = np.asarray(air_mbps, dtype=np.float64)
    wire = np.asarray(wire_mbps, dtype=np.float64)
    x = np.asarray(xtraffic_mbps, dtype=np.float64)
    test_air = np.maximum(air - x, 0.5 * air)
    allocated = np.minimum(test_air, wire)
    bottleneck = np.where(
        allocated >= wire - _EPS,
        np.int8(BOTTLENECK_PLAN),
        np.where(
            allocated >= air - _EPS,
            np.int8(BOTTLENECK_AIR),
            np.int8(BOTTLENECK_CONTENTION),
        ),
    ).astype(np.int8)
    return allocated, bottleneck
