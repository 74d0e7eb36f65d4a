"""Unit conversions and small numeric helpers shared across the library.

All internal computation uses a small set of canonical units:

* bandwidth / data rate:  **Mbps** (megabits per second, SI mega = 1e6)
* data volume:            **bytes** (and MB = 1e6 bytes for reporting)
* time:                   **seconds**
* radio spectrum:         **MHz**
* signal power:           **dBm**

Keeping the canonical units in one module (instead of ad-hoc ``* 8 /
1e6`` scattered through the code) makes the arithmetic auditable and is
the single place to change if a different convention is ever needed.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable

BITS_PER_BYTE = 8
MEGA = 1_000_000

#: Bandwidth sampling cadence used by BTS-APP and Swiftest (50 ms, §2/§5.1).
SAMPLE_INTERVAL_S = 0.050


def mbps_to_bytes_per_s(mbps: float) -> float:
    """Convert a data rate in Mbps to bytes per second."""
    return mbps * MEGA / BITS_PER_BYTE


def bytes_per_s_to_mbps(bps: float) -> float:
    """Convert a data rate in bytes per second to Mbps."""
    return bps * BITS_PER_BYTE / MEGA


def bytes_to_mb(n_bytes: float) -> float:
    """Convert a byte count to megabytes (SI, 1 MB = 1e6 bytes)."""
    return n_bytes / MEGA


def mb_to_bytes(mb: float) -> float:
    """Convert megabytes (SI) to bytes."""
    return mb * MEGA


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level in milliwatts to dBm.

    Raises :class:`ValueError` for non-positive power, which has no dBm
    representation.
    """
    if mw <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {mw}")
    return 10.0 * math.log10(mw)


def db_to_linear(db: float) -> float:
    """Convert a ratio in decibels to a linear ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear ratio to decibels.

    Raises :class:`ValueError` for non-positive ratios.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive to express in dB, got {ratio}")
    return 10.0 * math.log10(ratio)


def serial_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: floats added one at a time, left to
    right.

    Builtin ``sum`` of floats is compensated from Python 3.12 on
    (Neumaier summation), so its last bits depend on the interpreter.
    Simulation sums whose bits must replay on every version use this
    instead; it equals ``sum`` of Python 3.11 and earlier bit for bit.
    """
    return functools.reduce(operator.add, values, 0.0)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive interval ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty clamp interval [{low}, {high}]")
    return max(low, min(high, value))
